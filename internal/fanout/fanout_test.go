package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChunksContract: every index of [0, n) is visited exactly once, in
// contiguous chunks of size indices (the last one shorter, a size below 1
// counting as 1), on at most workers goroutines at a time; ⌈n/workers⌉
// gives at most workers chunks; chunk 0 runs on the caller's goroutine,
// and one worker runs the chunks in order there. Covers n < workers,
// n == 0 and non-positive worker counts.
func TestChunksContract(t *testing.T) {
	caller := goroutineID()
	if caller == 0 {
		t.Fatal("cannot parse the goroutine ID from runtime.Stack")
	}
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 4, 8} {
			perWorker := (n + max(workers, 1) - 1) / max(workers, 1)
			for _, size := range []int{-1, 0, 1, 2, 3, perWorker} {
				var (
					mu       sync.Mutex
					chunks   [][2]int
					inFlight atomic.Int32
					peak     atomic.Int32
					first    atomic.Uint64
				)
				visits := make([]int, n)
				err := Chunks(context.Background(), workers, n, size, func(_ context.Context, lo, hi int) error {
					if lo == 0 {
						first.Store(goroutineID())
					}
					cur := inFlight.Add(1)
					defer inFlight.Add(-1)
					for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
					}
					runtime.Gosched() // let the other goroutines overlap
					mu.Lock()
					defer mu.Unlock()
					chunks = append(chunks, [2]int{lo, hi})
					for i := lo; i < hi; i++ {
						visits[i]++
					}
					return nil
				})
				name := fmt.Sprintf("n=%d workers=%d size=%d", n, workers, size)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("%s: index %d visited %d times", name, i, v)
					}
				}
				if got := first.Load(); n > 0 && got != caller {
					t.Fatalf("%s: chunk 0 ran on goroutine %d, want the caller's %d", name, got, caller)
				}
				if p := int(peak.Load()); p > max(workers, 1) {
					t.Fatalf("%s: %d chunks ran at once, want at most %d", name, p, max(workers, 1))
				}
				if workers <= 1 && !sort.SliceIsSorted(chunks, func(a, b int) bool { return chunks[a][0] < chunks[b][0] }) {
					t.Fatalf("%s: one worker ran chunks out of order: %v", name, chunks)
				}
				if size == perWorker && workers > 0 && len(chunks) > workers {
					t.Fatalf("%s: %d chunks of ⌈n/workers⌉, want at most %d", name, len(chunks), workers)
				}
				step := max(size, 1)
				for _, c := range chunks {
					if c[0]%step != 0 || c[1] != min(c[0]+step, n) {
						t.Fatalf("%s: chunk [%d, %d) is not a size-%d slice", name, c[0], c[1], step)
					}
				}
			}
		}
	}
}

// goroutineID parses the running goroutine's ID from its stack header,
// "goroutine N [running]:"; 0 if the header does not parse.
func goroutineID() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(f[1], 10, 64)
	return id
}

// TestChunksBalancesUnevenItems: with size 1 the goroutines claim indices in
// order, so while index 0 is slow the other worker runs every later index —
// a static split of [0, 10) into halves would leave indices 1–4 queued
// behind index 0, and the in-order prefix of a stream stalled with them.
func TestChunksBalancesUnevenItems(t *testing.T) {
	const n = 10
	var done atomic.Int32
	othersDone := make(chan struct{})
	err := Chunks(context.Background(), 2, n, 1, func(_ context.Context, i, _ int) error {
		if i == 0 {
			select {
			case <-othersDone:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("index 0 waited for indices it should not block")
			}
		}
		if done.Add(1) == n-1 {
			close(othersDone)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChunksFirstErrorCancelsSiblings: the first chunk's error is returned,
// every running sibling sees its context cancelled, and no further chunk
// starts — even when the siblings return nil.
func TestChunksFirstErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	var (
		mu      sync.Mutex
		seen    []error
		started atomic.Int32
	)
	allStarted := make(chan struct{})
	err := Chunks(context.Background(), 4, 100, 1, func(ctx context.Context, lo, _ int) error {
		if started.Add(1) == 4 {
			close(allStarted)
		}
		if lo == 0 {
			select {
			case <-allStarted: // fail once every goroutine holds a chunk
			case <-time.After(10 * time.Second):
			}
			return boom
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		mu.Lock()
		seen = append(seen, ctx.Err())
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Chunks error = %v, want the first chunk's error", err)
	}
	if len(seen) != 3 || started.Load() != 4 {
		t.Fatalf("%d chunks started and %d siblings finished, want 4 and 3", started.Load(), len(seen))
	}
	for _, e := range seen {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("sibling saw %v, want context.Canceled", e)
		}
	}
}

// TestChunksCallerCancellation: a cancelled caller context is returned even
// when no chunk reports it, on the caller's goroutine and across chunks.
func TestChunksCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		for _, size := range []int{1, 2} {
			err := Chunks(ctx, workers, 8, size, func(context.Context, int, int) error { return nil })
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d size=%d: error = %v, want context.Canceled", workers, size, err)
			}
			err = Chunks(ctx, workers, 8, size, func(ctx context.Context, _, _ int) error { return ctx.Err() })
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d size=%d: checking chunks: error = %v, want context.Canceled", workers, size, err)
			}
		}
	}
	dl, stop := context.WithTimeout(context.Background(), -time.Second)
	defer stop()
	if err := Chunks(dl, 2, 0, 1, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired caller with no work: error = %v, want context.DeadlineExceeded", err)
	}
}
