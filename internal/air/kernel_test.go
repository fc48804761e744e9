package air

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/signal"
	"repro/internal/tagmodel"
)

// genericOnly hides a detector's concrete type, so RunSlot takes the
// generic path for it: the reference the word kernel is checked against.
// Like rfidd's timed and audited detectors, it gets the payload method by
// embedding.
type genericOnly struct{ detect.Detector }

// kernelCRCs are the CRC-CD parameter sets the differential checks cover.
var kernelCRCs = []crc.Params{crc.CRC5EPC, crc.CRC8ATM, crc.CRC16EPC, crc.CRC16CCITTFalse, crc.CRC32IEEE}

// slotResult is what one side of the differential check observed of a
// slot; Identified is held as a population index so both sides compare.
type slotResult struct {
	Truth, Declared signal.SlotType
	Identified      int
	Phantom         bool
	Bits            int
	Panicked        bool
}

// slotEntry runs one slot through one of the package's entry points.
type slotEntry func(sc *SlotScratch, det detect.Detector, responders []*tagmodel.Tag) Outcome

// runSide runs one slot and reports it, turning a panic (the generic
// path's answer to a mismatched ID length inside one phase) into a field
// so both sides must agree on it too.
func runSide(run slotEntry, sc *SlotScratch, det detect.Detector, responders []*tagmodel.Tag) (res slotResult) {
	defer func() {
		if recover() != nil {
			res = slotResult{Panicked: true}
		}
	}()
	o := run(sc, det, responders)
	res = slotResult{Truth: o.Truth, Declared: o.Declared, Identified: -1, Phantom: o.Phantom, Bits: o.Bits}
	if o.Identified != nil {
		res.Identified = o.Identified.Index
	}
	return res
}

// quietSeed seeds the Rng of the inert impairments below; nothing may
// draw from it.
const quietSeed = 0x5eed

// slotEntries are the entries the differential check runs every slot
// through beside the generic reference: RunSlot, whose slots det's word
// kernel takes, and RunSlotImpaired over an inert channel — the zero
// Impairment, and zero probabilities with an Rng, both on det and on the
// generic path — which must run the same slot and leave quiet undrawn.
func slotEntries(quiet *prng.Source) map[string]slotEntry {
	return map[string]slotEntry{
		"kernel": kernel,
		"impaired-zero": func(sc *SlotScratch, det detect.Detector, rs []*tagmodel.Tag) Outcome {
			return sc.RunSlotImpaired(det, rs, &Impairment{}, 1000, 0.5)
		},
		"impaired-quiet": func(sc *SlotScratch, det detect.Detector, rs []*tagmodel.Tag) Outcome {
			return sc.RunSlotImpaired(det, rs, &Impairment{Rng: quiet}, 1000, 0.5)
		},
		"generic-impaired-quiet": func(sc *SlotScratch, det detect.Detector, rs []*tagmodel.Tag) Outcome {
			return sc.RunSlotImpaired(genericOnly{det}, rs, &Impairment{Rng: quiet}, 1000, 0.5)
		},
	}
}

// kernel is RunSlot on det itself, which takes det's word kernel.
func kernel(sc *SlotScratch, det detect.Detector, rs []*tagmodel.Tag) Outcome {
	return sc.RunSlot(det, rs, 1000, 0.5)
}

// generic is the reference entry: RunSlot on the generic path.
func generic(sc *SlotScratch, det detect.Detector, rs []*tagmodel.Tag) Outcome {
	return sc.RunSlot(genericOnly{det}, rs, 1000, 0.5)
}

// kernelPopulation builds eight tags with idBits-bit IDs from seed; with
// mismatch, the last tag's ID is 8 bits shorter.
func kernelPopulation(seed uint64, idBits int, mismatch bool) tagmodel.Population {
	p := tagmodel.NewPopulation(8, idBits, prng.New(seed))
	if mismatch {
		last := p[len(p)-1]
		last.ID = last.ID.Slice(0, idBits-8)
	}
	return p
}

// diffSlots runs the same slots — responder sets of 0..8 tags drawn from
// seed — through each of slotEntries on its own population and through
// the generic path on an identical one, and fails on the first
// difference in Outcome, BitsSent, Identified, IdentifiedAtMicros or any
// responder's next PRNG draw, and if an inert impairment's Rng was drawn
// from. It returns the kernel's slot results so callers can check what
// the slots covered.
func diffSlots(t testing.TB, det detect.Detector, idBits int, seed uint64, mismatch bool, slots int) []slotResult {
	t.Helper()
	var results []slotResult
	quiet := prng.New(quietSeed)
	for name, entry := range slotEntries(quiet) {
		got := diffEntry(t, name, entry, det, idBits, seed, mismatch, slots)
		if name == "kernel" {
			results = got
		}
	}
	if a, b := quiet.Uint64(), prng.New(quietSeed).Uint64(); a != b {
		t.Fatalf("%s seed %d: an inert impairment's Rng was drawn from", det.Name(), seed)
	}
	return results
}

// diffEntry is diffSlots for one entry.
func diffEntry(t testing.TB, name string, entry slotEntry, det detect.Detector, idBits int, seed uint64, mismatch bool, slots int) []slotResult {
	t.Helper()
	fast := kernelPopulation(seed, idBits, mismatch)
	ref := kernelPopulation(seed, idBits, mismatch)
	var scFast, scRef SlotScratch
	pick := prng.New(seed ^ 0x9e3779b97f4a7c15)
	results := make([]slotResult, 0, slots)
	for s := 0; s < slots; s++ {
		perm := pick.Perm(len(fast))[:pick.Intn(len(fast)+1)]
		rf := make([]*tagmodel.Tag, len(perm))
		rr := make([]*tagmodel.Tag, len(perm))
		for i, j := range perm {
			rf[i], rr[i] = fast[j], ref[j]
		}
		got := runSide(entry, &scFast, det, rf)
		want := runSide(generic, &scRef, det, rr)
		if got != want {
			t.Fatalf("%s seed %d slot %d (responders %v): %s %+v, generic %+v", det.Name(), seed, s, perm, name, got, want)
		}
		for i := range fast {
			f, r := fast[i], ref[i]
			if f.BitsSent != r.BitsSent || f.Identified != r.Identified || f.IdentifiedAtMicros != r.IdentifiedAtMicros {
				t.Fatalf("%s seed %d slot %d: tag %d %s {bits %d id %v at %v}, generic {bits %d id %v at %v}",
					det.Name(), seed, s, i, name, f.BitsSent, f.Identified, f.IdentifiedAtMicros, r.BitsSent, r.Identified, r.IdentifiedAtMicros)
			}
		}
		for i := range rf {
			if a, b := rf[i].Rng.Uint64(), rr[i].Rng.Uint64(); a != b {
				t.Fatalf("%s seed %d slot %d: responder %d's next draw %#x (%s) != %#x (generic)", det.Name(), seed, s, rf[i].Index, a, name, b)
			}
		}
		results = append(results, got)
	}
	return results
}

type kernelCase struct {
	det    detect.Detector
	idBits int
}

// kernelCases lists every detector configuration the kernel binds:
// QCD at every strength, CRC-CD over the five presets, and the oracle,
// each at the paper's 64-bit IDs and at a shorter word.
func kernelCases() []kernelCase {
	var cs []kernelCase
	for _, idBits := range []int{64, 24} {
		for l := 1; l <= 64; l++ {
			cs = append(cs, kernelCase{detect.NewQCD(l, idBits), idBits})
		}
		for _, p := range kernelCRCs {
			cs = append(cs, kernelCase{detect.NewCRCCD(p, idBits), idBits})
		}
		cs = append(cs, kernelCase{detect.NewOracle(1, idBits), idBits}, kernelCase{detect.NewOracle(7, idBits), idBits})
	}
	return cs
}

// TestSlotKernelMatchesGenericPath is the differential test pinning the
// word kernel, and RunSlotImpaired over an inert channel, to the generic
// slot path, slot for slot.
func TestSlotKernelMatchesGenericPath(t *testing.T) {
	phantoms := 0
	for _, c := range kernelCases() {
		var sc SlotScratch
		if sc.kernelFor(c.det) == nil {
			t.Fatalf("%s over %d-bit IDs: no word kernel bound", c.det.Name(), c.idBits)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			for _, r := range diffSlots(t, c.det, c.idBits, seed, false, 150) {
				if r.Phantom {
					phantoms++
				}
			}
		}
	}
	// Strengths 1 and 2 miss collisions often enough that the phantom
	// branch must have been exercised.
	if phantoms == 0 {
		t.Fatal("no phantom read in any slot: the misdetection branch went untested")
	}
}

// TestSlotKernelSingleCRCCD pins the CRC-CD kernel's lone-responder
// shortcut, which skips both checksums: each tag alone in its slot must
// be declared single and identified, with the generic path's BitsSent,
// identification stamp and Outcome.
func TestSlotKernelSingleCRCCD(t *testing.T) {
	for _, idBits := range []int{64, 24} {
		for _, p := range kernelCRCs {
			det := detect.NewCRCCD(p, idBits)
			fast, ref := kernelPopulation(1, idBits, false), kernelPopulation(1, idBits, false)
			var scFast, scRef SlotScratch
			for i := range fast {
				got := runSide(kernel, &scFast, det, fast[i:i+1])
				want := runSide(generic, &scRef, det, ref[i:i+1])
				if got != want || got.Declared != signal.Single || got.Identified != fast[i].Index {
					t.Fatalf("%s over %d-bit IDs, tag %d alone: kernel %+v, generic %+v", det.Name(), idBits, i, got, want)
				}
				f, r := fast[i], ref[i]
				if f.BitsSent != r.BitsSent || f.IdentifiedAtMicros != r.IdentifiedAtMicros {
					t.Fatalf("%s over %d-bit IDs, tag %d alone: kernel {bits %d at %v}, generic {bits %d at %v}",
						det.Name(), idBits, i, f.BitsSent, f.IdentifiedAtMicros, r.BitsSent, r.IdentifiedAtMicros)
				}
			}
		}
	}
}

// TestSlotKernelMismatchedIDFallsBack checks that a responder whose ID
// length differs from the detector's sends the slot to the generic path
// with identical results, whatever that path does with it.
func TestSlotKernelMismatchedIDFallsBack(t *testing.T) {
	for _, det := range []detect.Detector{detect.NewQCD(8, 64), detect.NewCRCCD(crc.CRC32IEEE, 64), detect.NewOracle(1, 64)} {
		for seed := uint64(1); seed <= 8; seed++ {
			diffSlots(t, det, 64, seed, true, 60)
		}
	}
}

// TestSlotKernelBinding pins which detectors get a word kernel: wrapped
// detectors, IDs beyond one word and non-byte CRC-CD IDs stay generic.
func TestSlotKernelBinding(t *testing.T) {
	cases := []struct {
		det    detect.Detector
		kernel bool
	}{
		{detect.NewQCD(8, 64), true},
		{detect.NewQCD(8, 96), false},
		{detect.NewCRCCD(crc.CRC32IEEE, 64), true},
		{detect.NewCRCCD(crc.CRC32IEEE, 96), false},
		{detect.NewCRCCD(crc.CRC16EPC, 60), false},
		{detect.NewOracle(1, 64), true},
		{genericOnly{detect.NewQCD(8, 64)}, false},
	}
	for _, c := range cases {
		var sc SlotScratch
		if got := sc.kernelFor(c.det) != nil; got != c.kernel {
			t.Errorf("%s (%T): kernel bound = %v, want %v", c.det.Name(), c.det, got, c.kernel)
		}
	}
	// The binding follows the detector from slot to slot.
	var sc SlotScratch
	qcd, wrapped := detect.NewQCD(4, 64), genericOnly{detect.NewQCD(4, 64)}
	for _, det := range []detect.Detector{qcd, wrapped, qcd, detect.NewOracle(1, 64), wrapped} {
		want := det != detect.Detector(wrapped)
		if got := sc.kernelFor(det) != nil; got != want {
			t.Fatalf("%T: kernel bound = %v, want %v", det, got, want)
		}
	}
}

// TestSlotScratchPayloadsDoNotAlias runs an oracle slot with a 72-bit
// burst, a two-responder QCD-36 slot and the oracle slot again on one
// SlotScratch on the generic path. The generic path hands each slot's
// payload back as the next slot's scratch, so if the oracle returned a
// buffer of its own, the QCD slot would build its 72-bit preamble in
// that buffer and overwrite the burst. Each slot must match the same
// slot run by fresh detectors on a fresh scratch: the heard contention
// signal, the Outcome and every tag's BitsSent.
func TestSlotScratchPayloadsDoNotAlias(t *testing.T) {
	newDets := func() []detect.Detector {
		return []detect.Detector{detect.NewOracle(72, 64), detect.NewQCD(36, 64)}
	}
	slots := []struct {
		det        int // index into newDets: the oracle or QCD-36
		responders []int
	}{{0, []int{0}}, {1, []int{1, 2}}, {0, []int{3}}}

	dets := newDets()
	reused, fresh := pop(4, 9), pop(4, 9)
	var sc SlotScratch
	for s, sl := range slots {
		pick := func(p tagmodel.Population) []*tagmodel.Tag {
			rs := make([]*tagmodel.Tag, len(sl.responders))
			for i, j := range sl.responders {
				rs[i] = p[j]
			}
			return rs
		}
		var fsc SlotScratch
		got := runSide(generic, &sc, dets[sl.det], pick(reused))
		want := runSide(generic, &fsc, newDets()[sl.det], pick(fresh))
		if got != want {
			t.Fatalf("slot %d: reused scratch %+v, fresh scratch %+v", s, got, want)
		}
		if a, b := sc.contention.Receive().Signal, fsc.contention.Receive().Signal; !a.Equal(b) {
			t.Fatalf("slot %d: reused scratch heard %v, fresh scratch %v", s, a, b)
		}
		for i := range reused {
			if a, b := reused[i].BitsSent, fresh[i].BitsSent; a != b {
				t.Fatalf("slot %d: tag %d sent %d bits on the reused scratch, %d on a fresh one", s, i, a, b)
			}
		}
	}
	burst := bitstr.Not(bitstr.New(72))
	if p := dets[0].ContentionPayload(reused[0], bitstr.BitString{}); !p.Equal(burst) {
		t.Fatalf("oracle payload after the slots = %v, want the all-ones burst %v", p, burst)
	}
}

// FuzzSlotKernel drives the differential check, every entry of
// slotEntries included, from fuzzed seeds over every kernel
// configuration; the seed corpus runs under go test.
func FuzzSlotKernel(f *testing.F) {
	cases := kernelCases()
	for i := range cases {
		f.Add(uint64(i+1), uint16(i), false)
	}
	f.Add(uint64(7), uint16(0), true)
	f.Add(uint64(9), uint16(70), true)
	f.Fuzz(func(t *testing.T, seed uint64, which uint16, mismatch bool) {
		c := cases[int(which)%len(cases)]
		diffSlots(t, c.det, c.idBits, seed, mismatch, 40)
	})
}
