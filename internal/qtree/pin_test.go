package qtree

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// TestBlockerPins fixes the exact outcome of query-tree sessions under
// a full-space and a one-subtree blocker — census, airtime, truncation
// and every tag's BitsSent and identification stamp — for a detector
// with a deferred ID phase (QCD, weak and strong) and one without
// (CRC-CD), at unit and non-unit τ. The blocker's garbage and the
// declared singles it provokes both move these numbers, which the shape
// tests above would not notice.
func TestBlockerPins(t *testing.T) {
	want := map[string]string{
		`qcd2/protected=""/tau=1`:      "census={Idle:0 Single:2747 Collided:253 Frames:1} det={TrueCollided:253 DetectedCollided:194 FalseSingle:59 Phantom:733} bits=58912 time=40ecc40000000000 ids=0 truncated=true tags=f80f09fe9269c4f5",
		`qcd2/protected=""/tau=0.37`:   "census={Idle:0 Single:2747 Collided:253 Frames:1} det={TrueCollided:253 DetectedCollided:194 FalseSingle:59 Phantom:733} bits=58912 time=40d5495c28f5c19f ids=0 truncated=true tags=f80f09fe9269c4f5",
		`qcd2/protected="1"/tau=1`:     "census={Idle:11 Single:2833 Collided:156 Frames:1} det={TrueCollided:156 DetectedCollided:127 FalseSingle:29 Phantom:715} bits=59232 time=40ecec0000000000 ids=23 truncated=true tags=e493c525f4b3821c",
		`qcd2/protected="1"/tau=0.37`:  "census={Idle:11 Single:2833 Collided:156 Frames:1} det={TrueCollided:156 DetectedCollided:127 FalseSingle:29 Phantom:715} bits=59232 time=40d566f5c28f5b39 ids=23 truncated=true tags=a486ac54c40fb618",
		`qcd8/protected=""/tau=1`:      "census={Idle:0 Single:2747 Collided:253 Frames:1} det={TrueCollided:253 DetectedCollided:252 FalseSingle:1 Phantom:14} bits=48896 time=40e7e00000000000 ids=0 truncated=true tags=66e1feacb9f794f1",
		`qcd8/protected=""/tau=0.37`:   "census={Idle:0 Single:2747 Collided:253 Frames:1} det={TrueCollided:253 DetectedCollided:252 FalseSingle:1 Phantom:14} bits=48896 time=40d1aae147ae1423 ids=0 truncated=true tags=66e1feacb9f794f1",
		`qcd8/protected="1"/tau=1`:     "census={Idle:11 Single:2833 Collided:156 Frames:1} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:16} bits=50496 time=40e8a80000000000 ids=23 truncated=true tags=03959b7737cbccf6",
		`qcd8/protected="1"/tau=0.37`:  "census={Idle:11 Single:2833 Collided:156 Frames:1} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:16} bits=50496 time=40d23ee147ae13f4 ids=23 truncated=true tags=cf363bc8dcbf3ff0",
		`crccd/protected=""/tau=1`:     "census={Idle:0 Single:2747 Collided:253 Frames:1} det={TrueCollided:253 DetectedCollided:253 FalseSingle:0 Phantom:0} bits=288000 time=4111940000000000 ids=0 truncated=true tags=1ffe7330d68aa30b",
		`crccd/protected=""/tau=0.37`:  "census={Idle:0 Single:2747 Collided:253 Frames:1} det={TrueCollided:253 DetectedCollided:253 FalseSingle:0 Phantom:0} bits=288000 time=40fa040000000090 ids=0 truncated=true tags=1ffe7330d68aa30b",
		`crccd/protected="1"/tau=1`:    "census={Idle:11 Single:2833 Collided:156 Frames:1} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:0} bits=288000 time=4111940000000000 ids=23 truncated=true tags=3f0e346fe55e9c60",
		`crccd/protected="1"/tau=0.37`: "census={Idle:11 Single:2833 Collided:156 Frames:1} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:0} bits=288000 time=40fa040000000090 ids=23 truncated=true tags=5c35e9edac42ac38",
	}
	dets := []struct {
		name string
		det  detect.Detector
	}{
		{"qcd2", detect.NewQCD(2, 64)},
		{"qcd8", detect.NewQCD(8, 64)},
		{"crccd", detect.NewCRCCD(crc.CRC32IEEE, 64)},
	}
	for _, d := range dets {
		for _, protected := range []string{"", "1"} {
			for _, tau := range []float64{1, 0.37} {
				name := fmt.Sprintf("%s/protected=%q/tau=%g", d.name, protected, tau)
				p := pop(40, 9)
				blocker := &Blocker{Protected: bitstr.MustParse(protected), Rng: prng.New(12)}
				res := Run(p, d.det, timing.Model{TauMicros: tau}, Options{Blocker: blocker, MaxSlots: 3000})
				if got := qtreePin(p, res); got != want[name] {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
				}
			}
		}
	}
}

func qtreePin(p tagmodel.Population, res *Result) string {
	s := res.Session
	h := fnv.New64a()
	for _, tag := range p {
		fmt.Fprintf(h, "%d %x;", tag.BitsSent, math.Float64bits(tag.IdentifiedAtMicros))
	}
	for _, d := range s.DelaysMicros {
		fmt.Fprintf(h, "%x,", math.Float64bits(d))
	}
	for _, l := range res.LeafQueries {
		fmt.Fprintf(h, "%s,", l)
	}
	return fmt.Sprintf("census=%+v det=%+v bits=%d time=%x ids=%d truncated=%t tags=%016x",
		s.Census, s.Detection, s.Bits, math.Float64bits(s.TimeMicros), s.TagsIdentified, res.Truncated, h.Sum64())
}
