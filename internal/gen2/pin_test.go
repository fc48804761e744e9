package gen2

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// TestDetectorSlotPins fixes the exact outcome of QCD and CRC-CD
// inventories — census, airtime, command counters and every tag's
// BitsSent and identification stamp — with command charging on and off,
// at unit and non-unit τ, over 64-bit IDs (the word kernel's size) and
// 96-bit EPCs. The shape tests above would not notice a slot-level
// change that shifts these numbers.
func TestDetectorSlotPins(t *testing.T) {
	want := map[string]string{
		"qcd/id64/charge=true/tau=1":       "census={Idle:189 Single:150 Collided:182 Frames:160} det={TrueCollided:182 DetectedCollided:182 FalseSingle:0 Phantom:0} bits=17936 time=40da638000000000 ids=150 cmd=160/361/158/150 cmdbits=9086 wasted=0 tags=ac5259cf673fea37",
		"qcd/id64/charge=true/tau=0.37":    "census={Idle:189 Single:150 Collided:182 Frames:160} det={TrueCollided:182 DetectedCollided:182 FalseSingle:0 Phantom:0} bits=17936 time=40c38711eb851e96 ids=150 cmd=160/361/158/150 cmdbits=9086 wasted=0 tags=70c4e7edeb808563",
		"qcd/id64/charge=false/tau=1":      "census={Idle:189 Single:150 Collided:182 Frames:160} det={TrueCollided:182 DetectedCollided:182 FalseSingle:0 Phantom:0} bits=17936 time=40d1840000000000 ids=150 cmd=160/361/158/150 cmdbits=0 wasted=0 tags=b9ba54a54ab42f69",
		"qcd/id64/charge=false/tau=0.37":   "census={Idle:189 Single:150 Collided:182 Frames:160} det={TrueCollided:182 DetectedCollided:182 FalseSingle:0 Phantom:0} bits=17936 time=40b9ec51eb851ee4 ids=150 cmd=160/361/158/150 cmdbits=0 wasted=0 tags=a61668299203853b",
		"crccd/id64/charge=true/tau=1":     "census={Idle:164 Single:150 Collided:156 Frames:143} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:0} bits=45120 time=40ea23c000000000 ids=150 cmd=143/327/140/150 cmdbits=8414 wasted=0 tags=d4ffaed923a91f8b",
		"crccd/id64/charge=true/tau=0.37":  "census={Idle:164 Single:150 Collided:156 Frames:143} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:0} bits=45120 time=40d357e51eb851f0 ids=150 cmd=143/327/140/150 cmdbits=8414 wasted=0 tags=84f08aa87a22b009",
		"crccd/id64/charge=false/tau=1":    "census={Idle:164 Single:150 Collided:156 Frames:143} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:0} bits=45120 time=40e6080000000000 ids=150 cmd=143/327/140/150 cmdbits=0 wasted=0 tags=016a544475d01f4f",
		"crccd/id64/charge=false/tau=0.37": "census={Idle:164 Single:150 Collided:156 Frames:143} det={TrueCollided:156 DetectedCollided:156 FalseSingle:0 Phantom:0} bits=45120 time=40d04d99999999c3 ids=150 cmd=143/327/140/150 cmdbits=0 wasted=0 tags=16460f6070652bcb",
		"qcd/id96/charge=true/tau=1":       "census={Idle:136 Single:150 Collided:127 Frames:129} det={TrueCollided:127 DetectedCollided:126 FalseSingle:1 Phantom:1} bits=21104 time=40dc42c000000000 ids=150 cmd=129/284/127/151 cmdbits=7835 wasted=1 tags=ea52680746d64d69",
		"qcd/id96/charge=true/tau=0.37":    "census={Idle:136 Single:150 Collided:127 Frames:129} det={TrueCollided:127 DetectedCollided:126 FalseSingle:1 Phantom:1} bits=21104 time=40c4e9b70a3d708d ids=150 cmd=129/284/127/151 cmdbits=7835 wasted=1 tags=ff841394990faeab",
		"qcd/id96/charge=false/tau=1":      "census={Idle:136 Single:150 Collided:127 Frames:129} det={TrueCollided:127 DetectedCollided:126 FalseSingle:1 Phantom:1} bits=21104 time=40d49c0000000000 ids=150 cmd=129/284/127/151 cmdbits=0 wasted=1 tags=b40a789c60421fcf",
		"qcd/id96/charge=false/tau=0.37":   "census={Idle:136 Single:150 Collided:127 Frames:129} det={TrueCollided:127 DetectedCollided:126 FalseSingle:1 Phantom:1} bits=21104 time=40be807ae147ae52 ids=150 cmd=129/284/127/151 cmdbits=0 wasted=1 tags=b70ced8bac84e799",
		"crccd/id96/charge=true/tau=1":     "census={Idle:149 Single:150 Collided:145 Frames:144} det={TrueCollided:145 DetectedCollided:145 FalseSingle:0 Phantom:0} bits=56832 time=40efd46000000000 ids=150 cmd=144/300/143/150 cmdbits=8355 wasted=0 tags=1df99f44ffcf7428",
		"crccd/id96/charge=true/tau=0.37":  "census={Idle:149 Single:150 Collided:145 Frames:144} det={TrueCollided:145 DetectedCollided:145 FalseSingle:0 Phantom:0} bits=56832 time=40d78dcc28f5c29d ids=150 cmd=144/300/143/150 cmdbits=8355 wasted=0 tags=52b7a8226788a2aa",
		"crccd/id96/charge=false/tau=1":    "census={Idle:149 Single:150 Collided:145 Frames:144} det={TrueCollided:145 DetectedCollided:145 FalseSingle:0 Phantom:0} bits=56832 time=40ebc00000000000 ids=150 cmd=144/300/143/150 cmdbits=0 wasted=0 tags=3a837d76e08d519a",
		"crccd/id96/charge=false/tau=0.37": "census={Idle:149 Single:150 Collided:145 Frames:144} det={TrueCollided:145 DetectedCollided:145 FalseSingle:0 Phantom:0} bits=56832 time=40d488f5c28f5c4d ids=150 cmd=144/300/143/150 cmdbits=0 wasted=0 tags=adca5ea9e83dce10",
	}
	for _, idBits := range []int{64, 96} {
		for _, scheme := range []ReplyScheme{ReplyQCD, ReplyCRCCD} {
			var det detect.Detector = detect.NewQCD(8, idBits)
			if scheme == ReplyCRCCD {
				det = detect.NewCRCCD(crc.CRC32IEEE, idBits)
			}
			for _, charge := range []bool{true, false} {
				for _, tau := range []float64{1, 0.37} {
					name := fmt.Sprintf("%s/id%d/charge=%t/tau=%g", scheme, idBits, charge, tau)
					cfg := DefaultConfig(scheme, det)
					cfg.ChargeCommands = charge
					p := tagmodel.NewPopulation(150, idBits, prng.New(uint64(idBits)+31))
					got := gen2Pin(p, Run(p, cfg, timing.Model{TauMicros: tau}))
					if got != want[name] {
						t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
					}
				}
			}
		}
	}
}

func gen2Pin(p tagmodel.Population, res *Result) string {
	s := res.Session
	h := fnv.New64a()
	for _, tag := range p {
		fmt.Fprintf(h, "%d %x;", tag.BitsSent, math.Float64bits(tag.IdentifiedAtMicros))
	}
	for _, d := range s.DelaysMicros {
		fmt.Fprintf(h, "%x,", math.Float64bits(d))
	}
	return fmt.Sprintf("census=%+v det=%+v bits=%d time=%x ids=%d cmd=%d/%d/%d/%d cmdbits=%d wasted=%d tags=%016x",
		s.Census, s.Detection, s.Bits, math.Float64bits(s.TimeMicros), s.TagsIdentified,
		res.Queries, res.QueryReps, res.QueryAdjusts, res.ACKs, res.CommandBits, res.WastedACKs, h.Sum64())
}
