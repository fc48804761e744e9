package aloha

import (
	"testing"

	"repro/internal/crc"
	"repro/internal/detect"
)

func TestQAdaptiveIdentifiesEveryone(t *testing.T) {
	for _, det := range []detect.Detector{
		detect.NewQCD(8, 64),
		detect.NewCRCCD(crc.CRC32IEEE, 64),
	} {
		p := pop(300, 21)
		s := Exact(p, det, tm, Options{}).QAdaptive(DefaultQConfig())
		if !p.AllIdentified() {
			t.Fatalf("%s: Q-adaptive left tags unidentified", det.Name())
		}
		if s.TagsIdentified != 300 {
			t.Errorf("%s: identified %d", det.Name(), s.TagsIdentified)
		}
	}
}

func TestQAdaptiveBeatsBadFixedFrame(t *testing.T) {
	// Against 100 tags, the Q algorithm grows from Q=4 toward the right
	// frame size and must finish in far fewer slots than a grossly
	// oversized fixed frame (2000 slots/frame, almost all idle). A grossly
	// undersized fixed frame is not a fair comparison target: with
	// n ≫ F every slot collides and fixed FSA essentially never finishes,
	// which is exactly the failure mode adaptation exists to avoid.
	p := pop(100, 22)
	adaptive := Exact(p, detect.NewQCD(8, 64), tm, Options{}).QAdaptive(DefaultQConfig())
	p2 := pop(100, 22)
	fixed := Exact(p2, detect.NewQCD(8, 64), tm, Options{}).FSA(NewFixed(2000))
	if adaptive.Census.Slots() >= fixed.Census.Slots() {
		t.Errorf("Q-adaptive %d slots, fixed-2000 %d slots", adaptive.Census.Slots(), fixed.Census.Slots())
	}
	if adaptive.Census.Slots() > 1000 {
		t.Errorf("Q-adaptive took %d slots for 100 tags", adaptive.Census.Slots())
	}
}

func TestQAdaptiveSmallPopulation(t *testing.T) {
	p := pop(3, 23)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).QAdaptive(DefaultQConfig())
	if !p.AllIdentified() || s.TagsIdentified != 3 {
		t.Fatal("small population failed")
	}
}

func TestQAdaptiveSingleTag(t *testing.T) {
	p := pop(1, 24)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).QAdaptive(DefaultQConfig())
	if !p.AllIdentified() {
		t.Fatal("single tag not identified")
	}
	if s.Census.Single != 1 {
		t.Errorf("census = %+v", s.Census)
	}
}

func TestQConfigValidation(t *testing.T) {
	bad := []QConfig{
		{InitialQ: 4, C: 0, MaxQ: 15},
		{InitialQ: 4, C: 1.5, MaxQ: 15},
		{InitialQ: -1, C: 0.3, MaxQ: 15},
		{InitialQ: 8, C: 0.3, MaxQ: 4},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			Exact(pop(2, 25), detect.NewQCD(8, 64), tm, Options{}).QAdaptive(cfg)
		}()
	}
}

func TestQAdaptiveFrameCountsQueries(t *testing.T) {
	p := pop(100, 26)
	s := Exact(p, detect.NewQCD(8, 64), tm, Options{}).QAdaptive(DefaultQConfig())
	if s.Census.Frames < 1 {
		t.Error("no Query commands counted")
	}
}
