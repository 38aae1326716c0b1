// Package keytest checks the key constructors of the evaluation store.
// Each stored cell's key is built by one constructor over a declared
// input struct, and the key must change when any declared input does.
package keytest

import (
	"reflect"
	"testing"
)

// Perturb changes each field of base in turn and fails t when key maps
// the changed struct to base's key. Fields must be strings, integers,
// unsigned 64-bit integers or booleans.
func Perturb[K any](t testing.TB, base K, key func(K) string) {
	t.Helper()
	want := key(base)
	if again := key(base); again != want {
		t.Fatalf("equal inputs give keys %q and %q", want, again)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		k := base
		f := reflect.ValueOf(&k).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("field %s: no perturbation for kind %s", typ.Field(i).Name, f.Kind())
		}
		if key(k) == want {
			t.Errorf("changing %s leaves the key at %q", typ.Field(i).Name, want)
		}
	}
}
