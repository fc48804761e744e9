package aloha

import (
	"testing"

	"repro/internal/detect"
)

func TestEDFSAIdentifiesEveryone(t *testing.T) {
	p := pop(2000, 31)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).EDFSA(EDFSAConfig{MaxFrame: 256})
	if !p.AllIdentified() {
		t.Fatal("EDFSA left tags unidentified")
	}
	if s.TagsIdentified != 2000 {
		t.Errorf("identified %d", s.TagsIdentified)
	}
}

func TestEDFSAThroughputNearOptimalDespiteFrameCap(t *testing.T) {
	// The whole point of grouping: with a 256-slot frame cap and 2000
	// tags, plain fixed-256 FSA drowns in collisions while EDFSA keeps
	// per-group occupancy near 1 and its throughput near the 1/e regime.
	p := pop(2000, 32)
	ed := Exact(p, detect.NewOracle(1, 64), tm, Options{}).EDFSA(EDFSAConfig{MaxFrame: 256})
	if thr := ed.Census.Throughput(); thr < 0.30 {
		t.Errorf("EDFSA throughput %.3f, want ≥0.30 with grouping", thr)
	}
}

func TestEDFSABeatsCappedFixedFrame(t *testing.T) {
	p := pop(1500, 33)
	ed := Exact(p, detect.NewQCD(8, 64), tm, Options{}).EDFSA(EDFSAConfig{MaxFrame: 256})
	p2 := pop(1500, 33)
	fixed := Exact(p2, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(256))
	if ed.Census.Slots() >= fixed.Census.Slots() {
		t.Errorf("EDFSA %d slots not better than capped fixed %d",
			ed.Census.Slots(), fixed.Census.Slots())
	}
}

func TestEDFSASmallPopulationSingleGroup(t *testing.T) {
	p := pop(50, 34)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).EDFSA(EDFSAConfig{MaxFrame: 256, InitialFrame: 64})
	if !p.AllIdentified() {
		t.Fatal("small population failed")
	}
	if s.Census.Slots() > 500 {
		t.Errorf("%d slots for 50 tags", s.Census.Slots())
	}
}

func TestEDFSAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxFrame 0 accepted")
		}
	}()
	Exact(pop(2, 35), detect.NewQCD(8, 64), tm, Options{}).EDFSA(EDFSAConfig{})
}
