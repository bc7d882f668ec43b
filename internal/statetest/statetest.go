// Package statetest provides a reflection-based field audit and a
// behavioural equality check for tests.
//
// Code that enumerates a struct's fields by hand — the Result codec, the
// store keys and fingerprints, the agent-state captures of a chain
// checkpoint — silently ignores a field added later. Each such test
// declares, with Fields, the exact field set its code was written against;
// the test fails the moment the struct gains (or loses, or renames) a
// field, pointing at the code that must be updated.
//
// Field coverage of the simulator's state-lifecycle methods (Clone, and the
// Reset/Reseed and CopyStateFrom methods that some types keep) is checked
// statically instead, by the lifecycle analyzer (internal/analysis/
// lifecycle, run by detlint, go vet and its own package test), so those
// types carry no Fields audit. Equal remains the behavioural check that no
// static analysis replaces: original and copy driven through the same
// operations must agree.
package statetest

import (
	"fmt"
	"reflect"
	"sort"
)

// TB is the subset of testing.TB the audit needs; taking the interface keeps
// this package free of a testing import in non-test builds.
type TB interface {
	Helper()
	Errorf(format string, args ...interface{})
}

// Fields asserts that the struct type of sample has exactly the named
// fields. Tests call it with the field list the guarded code was written
// against; any drift — a new field, a removal, a rename — fails with
// instructions to update both that code and the list. Embedded and
// unexported fields count like any other.
func Fields(t TB, sample interface{}, covered ...string) {
	t.Helper()
	typ := reflect.TypeOf(sample)
	for typ.Kind() == reflect.Ptr {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		t.Errorf("statetest: %v is not a struct type", typ)
		return
	}
	have := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		have[typ.Field(i).Name] = true
	}
	want := make(map[string]bool, len(covered))
	for _, name := range covered {
		if want[name] {
			t.Errorf("statetest: %v: field %q listed twice", typ, name)
		}
		want[name] = true
	}
	var missing, extra []string
	for name := range have {
		if !want[name] {
			missing = append(missing, name)
		}
	}
	for name := range want {
		if !have[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, name := range missing {
		t.Errorf("statetest: %s.%s is not in the audit list — update the code this audit guards, then the list", typ.String(), name)
	}
	for _, name := range extra {
		t.Errorf("statetest: %s.%s no longer exists — update the code this audit guards, then the list", typ.String(), name)
	}
}

// Equal reports whether two values are deeply equal, with a diagnostic
// message for equivalence tests.
func Equal(t TB, label string, got, want interface{}) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: state mismatch\n got: %s\nwant: %s", label, format(got), format(want))
	}
}

func format(v interface{}) string { return fmt.Sprintf("%+v", v) }
