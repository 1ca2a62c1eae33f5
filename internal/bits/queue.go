package bits

import "fmt"

// Queue is an unbounded FIFO of bits. It is the width-conversion element of
// the interface model: the encoder pushes n-bit codewords at the IP clock and
// the per-wavelength serializers pop one bit per modulation cycle, exactly
// like the register-pipeline gearbox described in the paper's Section IV-C.
// The zero value is an empty queue ready for use.
type Queue struct {
	buf  []uint64
	head int // index of the next bit to pop
	tail int // index one past the last pushed bit
}

// Len returns the number of bits currently queued.
func (q *Queue) Len() int { return q.tail - q.head }

// Push appends a single bit.
func (q *Queue) Push(b int) {
	i := q.tail
	if i>>6 >= len(q.buf) {
		q.buf = append(q.buf, 0)
	}
	if b&1 == 1 {
		q.buf[i>>6] |= 1 << (uint(i) & 63)
	} else {
		q.buf[i>>6] &^= 1 << (uint(i) & 63)
	}
	q.tail++
}

// PushVector appends all bits of v in order.
func (q *Queue) PushVector(v Vector) {
	for i := 0; i < v.Len(); i++ {
		q.Push(v.Bit(i))
	}
}

// Pop removes and returns the oldest bit. It panics on an empty queue.
func (q *Queue) Pop() int {
	if q.Len() == 0 {
		panic("bits: Pop from empty Queue")
	}
	b := int(q.buf[q.head>>6]>>(uint(q.head)&63)) & 1
	q.head++
	q.maybeCompact()
	return b
}

// PopVectorInto removes the dst.Len() oldest bits into dst, overwriting it.
// It allocates nothing, which makes it the per-word drain of the serdes
// pipeline.
func (q *Queue) PopVectorInto(dst Vector) error {
	if dst.Len() > q.Len() {
		return fmt.Errorf("bits: PopVectorInto(%d) with only %d queued", dst.Len(), q.Len())
	}
	for i := 0; i < dst.Len(); i++ {
		dst.Set(i, q.Pop())
	}
	return nil
}

// maybeCompact reclaims consumed words once they dominate the buffer.
func (q *Queue) maybeCompact() {
	if q.head < 4096 || q.head*2 < q.tail {
		return
	}
	wordShift := q.head >> 6
	copy(q.buf, q.buf[wordShift:])
	q.buf = q.buf[:len(q.buf)-wordShift]
	q.head -= wordShift << 6
	q.tail -= wordShift << 6
}
