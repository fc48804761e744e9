package metrics

import (
	"reflect"
	"testing"
)

// fillNonZero sets every settable (exported) field of v to a non-zero
// probe value, recursing into structs. It fails the test on any field
// kind it does not know how to probe, so new field types must be added
// here deliberately.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := path + "." + v.Type().Field(i).Name
		if !f.CanSet() {
			continue // unexported: not part of the merge contract
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(3.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			elem := reflect.New(f.Type().Elem()).Elem()
			switch elem.Kind() {
			case reflect.Float64:
				elem.SetFloat(2.25)
			case reflect.Int, reflect.Int32, reflect.Int64:
				elem.SetInt(9)
			default:
				t.Fatalf("%s: no probe for slice of %s", name, elem.Kind())
			}
			f.Set(reflect.Append(f, elem))
		case reflect.Struct:
			fillNonZero(t, f, name)
		default:
			t.Fatalf("%s: no probe for kind %s — extend fillNonZero and Session.Merge", name, f.Kind())
		}
	}
}

// TestMergeSessionCoversEveryField is the completeness guard for
// Session.Merge: every exported Session field (recursively) set to a
// non-zero probe in the source must come out non-zero — in fact equal,
// since the destination starts zero and the delay offset is 0 — after
// the merge. A field added to Session without a matching Merge line
// fails here instead of silently vanishing from mobile-run aggregates
// and QT restart rounds, which is exactly how DelaysMicros went missing.
func TestMergeSessionCoversEveryField(t *testing.T) {
	var src Session
	fillNonZero(t, reflect.ValueOf(&src).Elem(), "Session")

	var dst Session
	dst.Merge(&src, 0)

	sv := reflect.ValueOf(src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < sv.NumField(); i++ {
		field := sv.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		got, want := dv.Field(i).Interface(), sv.Field(i).Interface()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Merge drops Session.%s: merged %v, want %v", field.Name, got, want)
		}
	}
	// The delay fold is unexported derived state, not a merged field:
	// it must equal the fold of the merged delay log.
	checkFold(t, "merged session", &dst)
}

// TestMergeSessionAccumulates pins the additive semantics over two
// merges (counts sum, delay logs concatenate) and the delay offset.
func TestMergeSessionAccumulates(t *testing.T) {
	a := Session{Bits: 10, TimeMicros: 5, TagsIdentified: 2, DelaysMicros: []float64{1, 2}}
	b := Session{Bits: 3, TimeMicros: 2.5, TagsIdentified: 1, DelaysMicros: []float64{9}}
	var dst Session
	dst.Merge(&a, 0)
	dst.Merge(&b, 0)
	if dst.Bits != 13 || dst.TimeMicros != 7.5 || dst.TagsIdentified != 3 {
		t.Fatalf("bad totals: %+v", dst)
	}
	if want := []float64{1, 2, 9}; !reflect.DeepEqual(dst.DelaysMicros, want) {
		t.Fatalf("DelaysMicros = %v, want %v", dst.DelaysMicros, want)
	}
	dst.Merge(&b, dst.TimeMicros)
	if want := []float64{1, 2, 9, 16.5}; !reflect.DeepEqual(dst.DelaysMicros, want) {
		t.Fatalf("DelaysMicros after an offset merge = %v, want %v", dst.DelaysMicros, want)
	}
	checkFold(t, "after an offset merge", &dst)
}
