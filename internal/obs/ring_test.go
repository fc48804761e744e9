package obs

import (
	"slices"
	"testing"
)

func TestRingKeepsTheNewestOldestFirst(t *testing.T) {
	r := NewRing[int](3)
	var overwrote []bool
	for i := 1; i <= 5; i++ {
		overwrote = append(overwrote, r.Push(i))
		if want := min(i, 3); r.Len() != want {
			t.Fatalf("after %d pushes Len = %d, want %d", i, r.Len(), want)
		}
	}
	if want := []bool{false, false, false, true, true}; !slices.Equal(overwrote, want) {
		t.Errorf("Push overwrote = %v, want %v", overwrote, want)
	}
	items := r.Items()
	if want := []int{3, 4, 5}; !slices.Equal(items, want) {
		t.Fatalf("Items = %v, want %v", items, want)
	}
	items[0] = 99 // a copy: the ring is untouched
	if got := r.Items(); got[0] != 3 {
		t.Errorf("Items aliases the ring: %v", got)
	}
	if z := NewRing[int](0); z.Push(1) || !z.Push(2) || !slices.Equal(z.Items(), []int{2}) {
		t.Errorf("a zero-capacity ring holds one value: %v", z.Items())
	}
}
