// Package bits provides the bit-exact data plane shared by the coding,
// serdes and channel-simulation packages: packed bit vectors, a FIFO bit
// queue used by the serializer gearbox, the binary symmetric channel and
// error injection helpers.
package bits

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Vector is a fixed-length sequence of bits packed into 64-bit words.
// A Vector value contains a reference to its storage: copies made by
// assignment alias the same bits; use Clone for an independent copy.
// The zero value is an empty vector.
type Vector struct {
	words []uint64
	n     int
}

// New returns an all-zero vector of n bits. n must be non-negative.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bits: New(%d): negative length", n))
	}
	return Vector{words: make([]uint64, (n+63)/64), n: n}
}

// FromString parses a vector from a string of '0' and '1' runes,
// most-significant (index 0) first. Spaces and underscores are ignored.
func FromString(s string) (Vector, error) {
	clean := strings.NewReplacer(" ", "", "_", "").Replace(s)
	v := New(len(clean))
	for i, r := range clean {
		switch r {
		case '0':
		case '1':
			v.Set(i, 1)
		default:
			return Vector{}, fmt.Errorf("bits: invalid rune %q at %d", r, i)
		}
	}
	return v, nil
}

// FromUint packs the low n bits of x into a vector, bit 0 of x at index 0.
func FromUint(x uint64, n int) Vector {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: FromUint with n=%d", n))
	}
	v := New(n)
	if n > 0 {
		if n < 64 {
			x &= (1 << uint(n)) - 1
		}
		v.words[0] = x
	}
	return v
}

// FromWords returns an n-bit vector backed by words itself: bit i is bit
// i&63 of words[i>>6]. It copies nothing — the vector aliases the first
// (n+63)/64 words — so code that keeps its bits in raw words (the bit-sliced
// Monte-Carlo kernel, fixed-size stack scratch) can hand them to Vector
// operations such as BSC.Corrupt without allocating. The bits of the last
// word past n must be zero. It panics unless 0 <= n <= 64·len(words).
func FromWords(words []uint64, n int) Vector {
	if n < 0 || n > 64*len(words) {
		panic(fmt.Sprintf("bits: FromWords(%d words, %d bits)", len(words), n))
	}
	return Vector{words: words[:(n+63)/64], n: n}
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Bit returns the bit at index i as 0 or 1.
func (v Vector) Bit(i int) int {
	v.check(i)
	return int(v.words[i>>6]>>(uint(i)&63)) & 1
}

// Set stores bit b (0 or 1) at index i.
func (v Vector) Set(i, b int) {
	v.check(i)
	mask := uint64(1) << (uint(i) & 63)
	if b&1 == 1 {
		v.words[i>>6] |= mask
	} else {
		v.words[i>>6] &^= mask
	}
}

// Flip inverts the bit at index i.
func (v Vector) Flip(i int) {
	v.check(i)
	v.words[i>>6] ^= uint64(1) << (uint(i) & 63)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and o have the same length and contents.
func (v Vector) Equal(o Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Xor returns the elementwise XOR of v and o, which must share a length.
func (v Vector) Xor(o Vector) (Vector, error) {
	if v.n != o.n {
		return Vector{}, fmt.Errorf("bits: Xor length mismatch %d vs %d", v.n, o.n)
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ o.words[i]
	}
	return out, nil
}

// XorInto stores the elementwise XOR of a and b into v. All three vectors
// must share a length; v may alias a or b. Unlike Xor it allocates nothing,
// which makes it the error-injection primitive of the word-wise Monte-Carlo
// path.
func (v Vector) XorInto(a, b Vector) error {
	if v.n != a.n || v.n != b.n {
		return fmt.Errorf("bits: XorInto length mismatch %d, %d vs %d", a.n, b.n, v.n)
	}
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i]
	}
	return nil
}

// XorPopCount returns the number of positions where v and o differ — the
// Hamming distance — computed word-wise (64-bit XOR + popcount) without
// allocating an intermediate vector.
func (v Vector) XorPopCount(o Vector) (int, error) {
	if v.n != o.n {
		return 0, fmt.Errorf("bits: Xor length mismatch %d vs %d", v.n, o.n)
	}
	total := 0
	for i := range v.words {
		total += bits.OnesCount64(v.words[i] ^ o.words[i])
	}
	return total, nil
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// AndMaskParity returns the parity (0/1) of the AND between v and a packed
// 64-bit-word mask of the same word length. It is the inner loop of all
// linear-code encoders: one parity bit is the parity of data & mask.
func (v Vector) AndMaskParity(mask []uint64) int {
	total := 0
	for i, w := range v.words {
		if i < len(mask) {
			total += bits.OnesCount64(w & mask[i])
		}
	}
	return total & 1
}

// Slice returns a copy of bits [lo, hi).
func (v Vector) Slice(lo, hi int) Vector {
	out := New(hi - lo)
	v.SliceInto(out, lo)
	return out
}

// SliceInto copies bits [lo, lo+dst.Len()) of v into dst, overwriting all of
// dst. It allocates nothing, which makes it the block-extraction primitive of
// the zero-alloc encode/decode seams: word-aligned sources copy whole words.
func (v Vector) SliceInto(dst Vector, lo int) {
	hi := lo + dst.n
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bits: Slice[%d:%d) of %d-bit vector", lo, hi, v.n))
	}
	if lo&63 == 0 {
		// Word-aligned fast path: whole-word copy plus a masked tail.
		copy(dst.words, v.words[lo>>6:])
		if tail := uint(dst.n) & 63; tail != 0 && len(dst.words) > 0 {
			dst.words[len(dst.words)-1] &= (1 << tail) - 1
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst.Set(i-lo, v.Bit(i))
	}
}

// Zero clears every bit of v.
func (v Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// FillRandom overwrites v with independent fair bits drawn word-wise from
// rng (one Uint64 per 64 bits instead of one draw per bit). It is the
// payload generator of the Monte-Carlo paths.
func (v Vector) FillRandom(rng *rand.Rand) {
	for i := range v.words {
		v.words[i] = rng.Uint64()
	}
	if tail := uint(v.n) & 63; tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << tail) - 1
	}
}

// Concat returns a new vector holding v followed by o.
func (v Vector) Concat(o Vector) Vector {
	out := New(v.n + o.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) == 1 {
			out.Set(i, 1)
		}
	}
	for i := 0; i < o.n; i++ {
		if o.Bit(i) == 1 {
			out.Set(v.n+i, 1)
		}
	}
	return out
}

// CopyInto writes v into dst starting at bit offset off. Other dst bits are
// left untouched. Word-aligned offsets copy whole words.
func (v Vector) CopyInto(dst Vector, off int) {
	if off < 0 || off+v.n > dst.n {
		panic(fmt.Sprintf("bits: CopyInto at %d overflows %d-bit destination", off, dst.n))
	}
	if off&63 == 0 && v.n > 0 {
		w := off >> 6
		full := v.n >> 6
		copy(dst.words[w:w+full], v.words[:full])
		if tail := uint(v.n) & 63; tail != 0 {
			mask := uint64(1)<<tail - 1
			dst.words[w+full] = dst.words[w+full]&^mask | v.words[full]&mask
		}
		return
	}
	for i := 0; i < v.n; i++ {
		dst.Set(off+i, v.Bit(i))
	}
}

// Uint returns the vector packed into a uint64 (bit i of the vector at bit i
// of the result). It panics for vectors longer than 64 bits.
func (v Vector) Uint() uint64 {
	if v.n > 64 {
		panic(fmt.Sprintf("bits: Uint on %d-bit vector", v.n))
	}
	if v.n == 0 {
		return 0
	}
	return v.words[0]
}

// OnesPositions returns the indices of all set bits in increasing order.
func (v Vector) OnesPositions() []int {
	var out []int
	for i := 0; i < v.n; i++ {
		if v.Bit(i) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// String renders the vector as '0'/'1' runes, index 0 first.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		sb.WriteByte('0' + byte(v.Bit(i)))
	}
	return sb.String()
}

// HammingDistance returns the number of positions where a and b differ.
// It is alloc-free: the distance is accumulated word-wise via XorPopCount.
func HammingDistance(a, b Vector) (int, error) {
	return a.XorPopCount(b)
}
