package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/tagmodel"
)

// twinPops builds two bit-identical populations from the same seed, so a
// frame scheduled over one can be differenced against a reference
// per-slot scan over the other without sharing PRNG state.
func twinPops(t *testing.T, n int, seed uint64) (tagmodel.Population, tagmodel.Population) {
	t.Helper()
	a := tagmodel.NewPopulation(n, 64, prng.New(seed))
	b := tagmodel.NewPopulation(n, 64, prng.New(seed))
	for i := range a {
		if !a[i].ID.Equal(b[i].ID) {
			t.Fatal("twin populations diverge")
		}
	}
	return a, b
}

// sameBucket asserts a scheduled bucket lists exactly the reference tags,
// by Index and in the same order.
func sameBucket(t *testing.T, label string, slot int, got []*tagmodel.Tag, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s slot %d: %d responders, want %d", label, slot, len(got), len(want))
	}
	for j, tag := range got {
		if tag.Index != want[j] {
			t.Fatalf("%s slot %d responder %d: tag %d, want %d", label, slot, j, tag.Index, want[j])
		}
	}
}

// TestFrameMatchesPerSlotScan differences Frame.Build against the
// historical formulations of the three ALOHA engines: the same PRNG seed
// must yield identical responder sets, per slot, in identical order.
func TestFrameMatchesPerSlotScan(t *testing.T) {
	t.Run("fsa", func(t *testing.T) {
		// FSA: every unidentified tag draws; buckets replace the per-frame
		// append loop. Pre-identify a third of the tags to exercise the
		// withheld path.
		pop, ref := twinPops(t, 120, 7)
		for i := 0; i < len(pop); i += 3 {
			pop[i].Identified = true
			ref[i].Identified = true
		}
		const F = 40
		var frame sched.Frame
		frame.Build(pop, F, func(tag *tagmodel.Tag) int {
			if tag.Identified {
				return -1
			}
			tag.Slot = tag.Rng.Intn(F)
			return tag.Slot
		})
		// Reference: the historical draw loop plus a scan per slot.
		for _, tag := range ref {
			if !tag.Identified {
				tag.Slot = tag.Rng.Intn(F)
			}
		}
		seen := 0
		for i := 0; i < F; i++ {
			var want []int
			for _, tag := range ref {
				if !tag.Identified && tag.Slot == i {
					want = append(want, tag.Index)
				}
			}
			sameBucket(t, "fsa", i, frame.Bucket(i), want)
			seen += len(want)
		}
		if frame.Participants() != seen || frame.Slots() != F {
			t.Fatalf("frame accounts %d/%d, want %d/%d", frame.Participants(), frame.Slots(), seen, F)
		}
	})

	t.Run("qadaptive", func(t *testing.T) {
		// Q: a tag only responds in the slot it drew, so bucket(slot) is
		// exactly the historical "counter reached zero" scan.
		pop, ref := twinPops(t, 80, 11)
		const slots = 16
		var frame sched.Frame
		frame.Build(pop, slots, func(tag *tagmodel.Tag) int {
			if tag.Identified {
				return -1
			}
			tag.Slot = tag.Rng.Intn(slots)
			return tag.Slot
		})
		for _, tag := range ref {
			tag.Slot = tag.Rng.Intn(slots)
		}
		for i := 0; i < slots; i++ {
			var want []int
			for _, tag := range ref {
				if tag.Slot == i {
					want = append(want, tag.Index)
				}
			}
			sameBucket(t, "q", i, frame.Bucket(i), want)
		}
	})

	t.Run("edfsa", func(t *testing.T) {
		// EDFSA: group partition then per-group frames. The reference is
		// the historical double scan — group draw over the population, slot
		// draw per group member — with both levels' PRNG order preserved.
		pop, ref := twinPops(t, 150, 13)
		const groups, F = 3, 32
		var grouping, frame sched.Frame
		grouping.Build(pop, groups, func(tag *tagmodel.Tag) int {
			tag.Counter = tag.Rng.Intn(groups)
			return tag.Counter
		})
		for _, tag := range ref {
			tag.Counter = tag.Rng.Intn(groups)
		}
		for g := 0; g < groups; g++ {
			frame.Build(grouping.Bucket(g), F, func(tag *tagmodel.Tag) int {
				tag.Slot = tag.Rng.Intn(F)
				return tag.Slot
			})
			for _, tag := range ref {
				if tag.Counter == g {
					tag.Slot = tag.Rng.Intn(F)
				}
			}
			for i := 0; i < F; i++ {
				var want []int
				for _, tag := range ref {
					if tag.Counter == g && tag.Slot == i {
						want = append(want, tag.Index)
					}
				}
				sameBucket(t, "edfsa", i, frame.Bucket(i), want)
			}
		}
	})
}

// TestBuildSlotsMatchesClosure pins the specialised draw: BuildSlots on
// one twin must produce exactly the buckets of Build with the standard
// Intn closure on the other — same PRNG consumption, same withheld
// identified tags — on frames drawn by Intn (24, 1) and by top bits (32).
// A second build on each twin checks that the streams were left alike.
func TestBuildSlotsMatchesClosure(t *testing.T) {
	for _, F := range []int{24, 32, 1} {
		t.Run(fmt.Sprintf("F=%d", F), func(t *testing.T) {
			pop, ref := twinPops(t, 90, 29)
			for i := 0; i < len(pop); i += 4 {
				pop[i].Identified = true
				ref[i].Identified = true
			}
			var fast, slow sched.Frame
			for build := 0; build < 2; build++ {
				fast.BuildSlots(pop, F)
				slow.Build(ref, F, func(tag *tagmodel.Tag) int {
					if tag.Identified {
						return -1
					}
					return tag.Rng.Intn(F)
				})
				if fast.Participants() != slow.Participants() {
					t.Fatalf("participants %d, want %d", fast.Participants(), slow.Participants())
				}
				for i := 0; i < F; i++ {
					want := make([]int, 0, 8)
					for _, tag := range slow.Bucket(i) {
						want = append(want, tag.Index)
					}
					sameBucket(t, "buildslots", i, fast.Bucket(i), want)
				}
			}
		})
	}
}

// TestBuildActiveMatchesScan runs a multi-frame inventory with tags
// progressively identified between frames, differencing the compacting
// active-list build against the historical full-population rescan with
// Intn draws: the PRNG sequence and every bucket must match even as the
// active list shrinks, and an identified tag must never resurface. The
// frame sizes mix powers of two, which the build draws by top bits, with
// a 3-slot frame and a 1-slot frame, which it draws by Intn.
// Buckets are checked for every slot of every frame, including the ones
// beyond the materialised prefix in the prefix variant, so the scan
// fallback is differenced against the same reference.
func TestBuildActiveMatchesScan(t *testing.T) {
	for _, prefix := range []int{1 << 30, 8, 1} {
		prefix := prefix
		t.Run(fmt.Sprintf("prefix=%d", prefix), func(t *testing.T) {
			testBuildActive(t, prefix)
		})
	}
}

func testBuildActive(t *testing.T, prefix int) {
	pop, ref := twinPops(t, 100, 31)
	var frame sched.Frame
	frame.Reset(pop)
	for round, slots := range []int{512, 16, 512, 3, 128, 1, 2, 1 << 15} {
		// Identify a few more tags each round to exercise the compaction.
		if round > 0 {
			for i := round; i < len(pop); i += 7 {
				pop[i].Identified = true
				ref[i].Identified = true
			}
		}
		frame.BuildActivePrefix(slots, prefix)
		// Reference: the historical draw loop plus a scan per slot.
		for _, tag := range ref {
			if !tag.Identified {
				tag.Slot = tag.Rng.Intn(slots)
			}
		}
		if frame.Slots() != slots {
			t.Fatalf("round %d: %d slots, want %d", round, frame.Slots(), slots)
		}
		for i := 0; i < slots; i++ {
			want := make([]int, 0, 8)
			for _, tag := range ref {
				if !tag.Identified && tag.Slot == i {
					want = append(want, tag.Index)
				}
			}
			sameBucket(t, "active", i, frame.Bucket(i), want)
		}
	}
}

// TestFrameReuse rebuilds one Frame across shrinking and growing slot
// counts and checks no stale buckets leak through.
func TestFrameReuse(t *testing.T) {
	pop, _ := twinPops(t, 50, 17)
	var frame sched.Frame
	for _, slots := range []int{64, 8, 1, 31} {
		frame.Build(pop, slots, func(tag *tagmodel.Tag) int {
			tag.Slot = tag.Rng.Intn(slots)
			return tag.Slot
		})
		total := 0
		for i := 0; i < slots; i++ {
			for _, tag := range frame.Bucket(i) {
				if tag.Slot != i {
					t.Fatalf("slots=%d: tag %d in bucket %d drew %d", slots, tag.Index, i, tag.Slot)
				}
				total++
			}
		}
		if total != len(pop) || frame.Participants() != len(pop) {
			t.Fatalf("slots=%d: %d tags bucketed, want %d", slots, total, len(pop))
		}
	}
}

// TestArenaPartition checks the stable partition against a naive filter,
// including the self-aliasing case (splitting a segment of the arena
// into the arena).
func TestArenaPartition(t *testing.T) {
	pop, _ := twinPops(t, 64, 23)
	var a sched.Arena
	for _, tag := range pop {
		a.Push(tag)
	}
	root := a.Slice(0, a.Len())

	key := func(tag *tagmodel.Tag) int { return int(tag.ID.Uint64Range(0, 2)) }
	keep := func(tag *tagmodel.Tag) bool { return tag.Index%5 != 0 }
	var bounds [5]int32
	a.Partition(root, 4, key, keep, bounds[:])
	for k := 0; k < 4; k++ {
		var want []int
		for _, tag := range pop {
			if keep(tag) && key(tag) == k {
				want = append(want, tag.Index)
			}
		}
		sameBucket(t, "partition", k, a.Slice(int(bounds[k]), int(bounds[k+1])), want)
	}

	// Re-split the second-level bucket 0 by the next bit: aliasing a
	// freshly appended segment must be safe even when appends grow the
	// backing array.
	seg := a.Slice(int(bounds[0]), int(bounds[1]))
	var sub [3]int32
	a.Partition(seg, 2, func(tag *tagmodel.Tag) int { return int(tag.ID.Uint64Range(2, 3)) },
		func(*tagmodel.Tag) bool { return true }, sub[:])
	for k := 0; k < 2; k++ {
		var want []int
		for _, tag := range seg {
			if int(tag.ID.Uint64Range(2, 3)) == k {
				want = append(want, tag.Index)
			}
		}
		sameBucket(t, "subpartition", k, a.Slice(int(sub[k]), int(sub[k+1])), want)
	}

	a.Reset()
	if a.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}
