package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// perturbLeaf walks v depth-first — struct fields in declaration order,
// map entries in sorted key order — and nudges its n-th numeric leaf by the
// smallest representable step. It returns the leaf's path, or "" when v has
// at most n leaves. A field kind the walk does not know fails the test, so
// a new kind of configuration field cannot slip past unchecked.
func perturbLeaf(t *testing.T, v reflect.Value, n *int, path string) string {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		if *n == 0 {
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
			return path
		}
		*n--
	case reflect.Int:
		if *n == 0 {
			v.SetInt(v.Int() + 1)
			return path
		}
		*n--
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := perturbLeaf(t, v.Field(i), n, path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int {
			switch {
			case a.String() < b.String():
				return -1
			case a.String() > b.String():
				return 1
			}
			return 0
		})
		for _, k := range keys {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(k))
			if p := perturbLeaf(t, elem, n, path+"["+k.String()+"]"); p != "" {
				v.SetMapIndex(k, elem)
				return p
			}
		}
	default:
		t.Fatalf("%s: unhandled field kind %s; teach Fingerprint and this walk about it", path, v.Kind())
	}
	return ""
}

func TestFingerprintCoversEveryLeaf(t *testing.T) {
	base := Fingerprint(DefaultConfig())
	leaves := 0
	for ; ; leaves++ {
		cfg := DefaultConfig() // a fresh InterfacePowers map per perturbation
		n := leaves
		path := perturbLeaf(t, reflect.ValueOf(&cfg).Elem(), &n, "LinkConfig")
		if path == "" {
			break
		}
		if Fingerprint(cfg) == base {
			t.Errorf("perturbing %s leaves the fingerprint unchanged", path)
		}
	}
	// 34 scalar fields plus two per Table I interface-power entry.
	if want := 34 + 2*len(DefaultConfig().InterfacePowers); leaves != want {
		t.Errorf("walked %d leaves, want %d", leaves, want)
	}

	// The map's keys and membership are hashed too.
	renamed := DefaultConfig()
	renamed.InterfacePowers["H(7,4) "] = renamed.InterfacePowers["H(7,4)"]
	delete(renamed.InterfacePowers, "H(7,4)")
	dropped := DefaultConfig()
	delete(dropped.InterfacePowers, "H(7,4)")
	added := DefaultConfig()
	added.InterfacePowers["H(15,11)"] = InterfacePower{}
	for name, cfg := range map[string]LinkConfig{"renamed": renamed, "dropped": dropped, "added": added} {
		if Fingerprint(cfg) == base {
			t.Errorf("%s InterfacePowers entry leaves the fingerprint unchanged", name)
		}
	}
}

func TestFingerprintIgnoresMapInsertionOrder(t *testing.T) {
	ref := DefaultConfig()
	want := Fingerprint(ref)
	names := make([]string, 0, len(ref.InterfacePowers))
	for name := range ref.InterfacePowers {
		names = append(names, name)
	}
	slices.Sort(names)
	for round := 0; round < 20; round++ {
		cfg := DefaultConfig()
		cfg.InterfacePowers = make(map[string]InterfacePower)
		// Insert in a rotated order each round.
		for i := range names {
			name := names[(i+round)%len(names)]
			cfg.InterfacePowers[name] = ref.InterfacePowers[name]
		}
		if got := Fingerprint(cfg); got != want {
			t.Fatalf("round %d: fingerprint %s, want %s", round, got, want)
		}
	}
}
