package mobility

import (
	"testing"

	"repro/internal/crc"
	"repro/internal/detect"
)

func arrivals() Arrivals {
	// ~50 tags/s with 0.5 s dwell → ~25 tags in the field on average.
	return Arrivals{RatePerSecond: 50, DwellMicros: 500_000}
}

func TestRunConservation(t *testing.T) {
	res := Run(ProtoBT, detect.NewQCD(8, 64), arrivals(), 3e6, 1)
	if res.Arrived == 0 {
		t.Fatal("no arrivals in 3 s at 50/s")
	}
	if res.Read+res.Missed != res.Arrived {
		t.Fatalf("conservation violated: %d read + %d missed != %d arrived",
			res.Read, res.Missed, res.Arrived)
	}
	if res.Rounds == 0 || res.Session.TimeMicros <= 0 {
		t.Error("no inventory work recorded")
	}
}

func TestQCDMissesFewerThanCRC(t *testing.T) {
	// The operational consequence of Figure 6: with a tight dwell, the
	// slower CRC-CD reader loses more tags. Use a short dwell so the
	// difference is forced.
	// ~10 tags in the field; a CRC-CD BT round over 10 tags costs ≈2.8 ms
	// of airtime, so a 5 ms dwell is frequently blown (wait for the
	// current round + be read in the next), while a QCD round (≈1.1 ms)
	// fits twice over.
	tight := Arrivals{RatePerSecond: 2000, DwellMicros: 5_000}
	qcd := Run(ProtoBT, detect.NewQCD(8, 64), tight, 3e6, 2)
	crcRes := Run(ProtoBT, detect.NewCRCCD(crc.CRC32IEEE, 64), tight, 3e6, 2)
	if qcd.MissRate() >= crcRes.MissRate() {
		t.Errorf("QCD miss %.3f not better than CRC-CD %.3f",
			qcd.MissRate(), crcRes.MissRate())
	}
	if crcRes.MissRate() == 0 {
		t.Error("test premise broken: CRC-CD missed nothing under the tight dwell")
	}
}

func TestABSBeatsColdBTInSlots(t *testing.T) {
	// With a mostly stable field, ABS re-reads known tags in single slots;
	// per-round slot usage must be well below cold BT's 2.885n.
	stable := Arrivals{RatePerSecond: 20, DwellMicros: 2_000_000} // ~40 in field
	abs := Run(ProtoABS, detect.NewQCD(8, 64), stable, 5e6, 3)
	bt := Run(ProtoBT, detect.NewQCD(8, 64), stable, 5e6, 3)
	absSlotsPerTagRead := float64(abs.Session.Census.Slots()) / float64(abs.Session.TagsIdentified)
	btSlotsPerTagRead := float64(bt.Session.Census.Slots()) / float64(bt.Session.TagsIdentified)
	if absSlotsPerTagRead >= btSlotsPerTagRead {
		t.Errorf("ABS %.2f slots/read not better than BT %.2f", absSlotsPerTagRead, btSlotsPerTagRead)
	}
	if absSlotsPerTagRead > 2.0 {
		t.Errorf("ABS used %.2f slots per read; steady state should be near 1", absSlotsPerTagRead)
	}
}

func TestExponentialDwell(t *testing.T) {
	arr := arrivals()
	arr.ExponentialDwell = true
	res := Run(ProtoBT, detect.NewQCD(8, 64), arr, 2e6, 4)
	if res.Read+res.Missed != res.Arrived {
		t.Fatal("conservation violated with exponential dwell")
	}
}

func TestDeterministic(t *testing.T) {
	a := Run(ProtoBT, detect.NewQCD(8, 64), arrivals(), 1e6, 5)
	b := Run(ProtoBT, detect.NewQCD(8, 64), arrivals(), 1e6, 5)
	if a.Arrived != b.Arrived || a.Read != b.Read || a.Session.TimeMicros != b.Session.TimeMicros {
		t.Error("mobile run not deterministic")
	}
}

func TestEmptyWindow(t *testing.T) {
	// A duration shorter than the first inter-arrival gap: nothing happens.
	res := Run(ProtoBT, detect.NewQCD(8, 64), Arrivals{RatePerSecond: 0.001, DwellMicros: 1000}, 10, 6)
	if res.Arrived != 0 || res.Rounds != 0 {
		t.Errorf("unexpected activity: %+v", res)
	}
	if res.MissRate() != 0 {
		t.Error("empty run miss rate != 0")
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid arrivals accepted")
		}
	}()
	Run(ProtoBT, detect.NewQCD(8, 64), Arrivals{}, 1e6, 1)
}

func TestProtocolString(t *testing.T) {
	if ProtoBT.String() != "BT" || ProtoABS.String() != "ABS" {
		t.Error("protocol names")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Error("unknown protocol name")
	}
}

func TestMeanFieldSizeTracksLittlesLaw(t *testing.T) {
	// Little's law: L = λW = 50/s × 0.5s = 25 tags in the field.
	res := Run(ProtoBT, detect.NewQCD(8, 64), arrivals(), 10e6, 7)
	if res.MeanFieldSize < 12 || res.MeanFieldSize > 40 {
		t.Errorf("mean field size %.1f, Little's law predicts ≈25", res.MeanFieldSize)
	}
}

// TestRunSessionKeepsDelays: the end-to-end consequence of the fix —
// a mobile run's aggregate session carries one delay sample per
// identified-tag event across all rounds.
func TestRunSessionKeepsDelays(t *testing.T) {
	res := Run(ProtoBT, detect.NewQCD(8, 64), Arrivals{RatePerSecond: 2000, DwellMicros: 100_000}, 500_000, 11)
	if res.Session.TagsIdentified == 0 {
		t.Fatal("run identified nothing")
	}
	if got := int64(len(res.Session.DelaysMicros)); got != res.Session.TagsIdentified {
		t.Fatalf("aggregate session has %d delay samples for %d identifications",
			got, res.Session.TagsIdentified)
	}
}

// TestRunIDDrawsPinned: the newcomer ID draw — word-sized IDs deduped on
// the raw integer, longer ones on their key string — keeps the draw
// sequence these runs were pinned with, across a 16-bit ID space small
// enough for the dedup to reject draws, the 64-bit word and 96-bit IDs.
func TestRunIDDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		bits                          int
		proto                         Protocol
		arrived, read, missed, rounds int
		slots                         int64
	}{
		{16, ProtoBT, 954, 954, 0, 1001, 22867},
		{16, ProtoABS, 954, 954, 0, 1673, 17323},
		{64, ProtoBT, 984, 984, 0, 552, 12729},
		{64, ProtoABS, 984, 984, 0, 674, 8677},
		{96, ProtoBT, 999, 999, 0, 405, 9737},
		{96, ProtoABS, 998, 998, 0, 458, 6831},
	} {
		arr := Arrivals{RatePerSecond: 2000, DwellMicros: 5000, IDBits: c.bits}
		r := Run(c.proto, detect.NewQCD(8, c.bits), arr, 5e5, 7)
		got := [5]int64{int64(r.Arrived), int64(r.Read), int64(r.Missed), int64(r.Rounds), r.Session.Census.Slots()}
		want := [5]int64{int64(c.arrived), int64(c.read), int64(c.missed), int64(c.rounds), c.slots}
		if got != want {
			t.Errorf("%d-bit %v: arrived/read/missed/rounds/slots = %v, pinned %v", c.bits, c.proto, got, want)
		}
	}
}
