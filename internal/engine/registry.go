package engine

import "sync"

// registryCap bounds every engine registry. Deriving an entry costs far less
// than the solves it serves, so a full registry is flushed rather than
// tracked for recency.
const registryCap = 512

// registry is a bounded memo of immutable values the engine derives once
// per key: interned scheme plans by name, interned link plans by
// configuration fingerprint, built networks by topology, code-side points
// by target BER. Callers build a missing value
// outside the lock and add it; lookup and add are split so a warm lookup
// allocates nothing.
type registry[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func (r *registry[K, V]) lookup(k K) (V, bool) {
	r.mu.Lock()
	v, ok := r.m[k]
	r.mu.Unlock()
	return v, ok
}

// add stores v under k and returns the stored value: when a racing caller
// added k first, its value wins, so every caller shares one.
func (r *registry[K, V]) add(k K, v V) V {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.m[k]; ok {
		return cur
	}
	if r.m == nil || len(r.m) >= registryCap {
		r.m = make(map[K]V)
	}
	r.m[k] = v
	return v
}

func (r *registry[K, V]) len() int {
	r.mu.Lock()
	n := len(r.m)
	r.mu.Unlock()
	return n
}
