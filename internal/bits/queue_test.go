package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueFIFOOrder(t *testing.T) {
	var q Queue
	in := []int{1, 0, 1, 1, 0, 0, 1}
	for _, b := range in {
		q.Push(b)
	}
	if q.Len() != len(in) {
		t.Fatalf("Len = %d", q.Len())
	}
	for i, want := range in {
		if got := q.Pop(); got != want {
			t.Errorf("Pop #%d = %d, want %d", i, got, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after drain = %d", q.Len())
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue should panic")
		}
	}()
	var q Queue
	q.Pop()
}

func TestQueueVectorRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2))
		}
		var q Queue
		q.PushVector(v)
		out := New(n)
		err := q.PopVectorInto(out)
		return err == nil && out.Equal(v) && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQueuePopVectorUnderflow(t *testing.T) {
	var q Queue
	q.Push(1)
	if err := q.PopVectorInto(New(2)); err == nil {
		t.Error("underflow should error")
	}
}

func TestQueueInterleavedGearbox(t *testing.T) {
	// Simulate the serdes pattern: push 7-bit codewords, pop 16-bit lane
	// frames; the concatenated output must equal the concatenated input.
	var q Queue
	var expect []int
	rng := rand.New(rand.NewSource(7))
	var got []int
	frame := New(16)
	for round := 0; round < 100; round++ {
		w := New(7)
		for i := 0; i < 7; i++ {
			b := rng.Intn(2)
			w.Set(i, b)
			expect = append(expect, b)
		}
		q.PushVector(w)
		for q.Len() >= 16 {
			if err := q.PopVectorInto(frame); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				got = append(got, frame.Bit(i))
			}
		}
	}
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	if len(got) != len(expect) {
		t.Fatalf("drained %d bits, want %d", len(got), len(expect))
	}
	for i := range expect {
		if got[i] != expect[i] {
			t.Fatalf("bit %d = %d, want %d", i, got[i], expect[i])
		}
	}
}

func TestQueueCompaction(t *testing.T) {
	// Push and pop far past the compaction threshold; contents must survive.
	var q Queue
	const total = 100000
	next := 0
	popped := 0
	for next < total {
		for i := 0; i < 100 && next < total; i++ {
			q.Push(next & 1)
			next++
		}
		for i := 0; i < 99 && q.Len() > 0; i++ {
			if got := q.Pop(); got != popped&1 {
				t.Fatalf("bit %d corrupted: got %d", popped, got)
			}
			popped++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != popped&1 {
			t.Fatalf("bit %d corrupted during drain: got %d", popped, got)
		}
		popped++
	}
	if popped != total {
		t.Fatalf("popped %d, want %d", popped, total)
	}
}
