package gen2

import (
	"strings"
	"testing"

	"repro/internal/aloha"
	"repro/internal/crc"
	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

var tm = timing.Default

func pop(n int, seed uint64) tagmodel.Population {
	return tagmodel.NewPopulation(n, 64, prng.New(seed))
}

func schemes() []Config {
	return []Config{
		DefaultConfig(ReplyRN16, nil),
		DefaultConfig(ReplyCRCCD, detect.NewCRCCD(crc.CRC32IEEE, 64)),
		DefaultConfig(ReplyQCD, detect.NewQCD(8, 64)),
	}
}

func TestInventoryCompletes(t *testing.T) {
	for _, cfg := range schemes() {
		p := pop(200, 1)
		res := Run(p, cfg, tm)
		if !p.AllIdentified() {
			t.Fatalf("%s: tags left unidentified", cfg.Scheme)
		}
		if res.Session.TagsIdentified != 200 {
			t.Errorf("%s: identified %d", cfg.Scheme, res.Session.TagsIdentified)
		}
		if res.Queries < 1 || res.ACKs < 200 {
			t.Errorf("%s: queries=%d acks=%d", cfg.Scheme, res.Queries, res.ACKs)
		}
		if cfg.ChargeCommands && res.CommandBits == 0 {
			t.Errorf("%s: no command airtime charged", cfg.Scheme)
		}
	}
}

func TestSingleTag(t *testing.T) {
	for _, cfg := range schemes() {
		p := pop(1, 2)
		res := Run(p, cfg, tm)
		if !p.AllIdentified() {
			t.Fatalf("%s: lone tag not identified", cfg.Scheme)
		}
		if res.WastedACKs != 0 {
			t.Errorf("%s: lone tag wasted %d ACKs", cfg.Scheme, res.WastedACKs)
		}
	}
}

func TestRN16WastesACKsOnCollisions(t *testing.T) {
	// Stock Gen-2 has no slot-level collision detection: every collided
	// slot that the reader opens costs a full ACK exchange. With 500 tags
	// there are hundreds of collisions, so wasted ACKs must be plentiful.
	p := pop(500, 3)
	res := Run(p, DefaultConfig(ReplyRN16, nil), tm)
	if res.WastedACKs < 100 {
		t.Errorf("RN16 wasted only %d ACKs over a 500-tag inventory", res.WastedACKs)
	}
	// QCD screens collisions before the ACK: essentially none wasted.
	p2 := pop(500, 3)
	res2 := Run(p2, DefaultConfig(ReplyQCD, detect.NewQCD(8, 64)), tm)
	if res2.WastedACKs > res.WastedACKs/10 {
		t.Errorf("QCD wasted %d ACKs vs RN16's %d", res2.WastedACKs, res.WastedACKs)
	}
}

func TestQCDBeatsBothOnTotalTime(t *testing.T) {
	// With command airtime charged, QCD must still beat CRC-CD, and both
	// detector-assisted schemes must beat blind RN16 + ACK probing.
	times := map[ReplyScheme]float64{}
	for _, cfg := range schemes() {
		p := pop(300, 4)
		res := Run(p, cfg, tm)
		times[cfg.Scheme] = res.Session.TimeMicros
	}
	if !(times[ReplyQCD] < times[ReplyCRCCD]) {
		t.Errorf("QCD (%.0f) not faster than CRC-CD (%.0f)", times[ReplyQCD], times[ReplyCRCCD])
	}
	if !(times[ReplyQCD] < times[ReplyRN16]) {
		t.Errorf("QCD (%.0f) not faster than RN16 (%.0f)", times[ReplyQCD], times[ReplyRN16])
	}
}

func TestCommandChargingToggle(t *testing.T) {
	cfg := DefaultConfig(ReplyQCD, detect.NewQCD(8, 64))
	p := pop(100, 5)
	with := Run(p, cfg, tm)

	cfg.ChargeCommands = false
	p2 := pop(100, 5)
	without := Run(p2, cfg, tm)
	if with.Session.TimeMicros <= without.Session.TimeMicros {
		t.Error("command charging did not increase session time")
	}
	if without.CommandBits != 0 {
		t.Error("uncharged run recorded command bits")
	}
}

func TestFramesCountQueries(t *testing.T) {
	p := pop(64, 6)
	res := Run(p, DefaultConfig(ReplyQCD, detect.NewQCD(8, 64)), tm)
	if res.Session.Census.Frames != res.Queries {
		t.Errorf("frames %d != queries %d", res.Session.Census.Frames, res.Queries)
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QCD scheme without detector accepted")
		}
	}()
	Run(pop(2, 7), Config{Scheme: ReplyQCD, QConfig: aloha.QConfig{C: 0.3, MaxQ: 15}}, tm)
}

// TestNegativeInitialQRejected pins that a Q range below zero fails at
// config validation, with the Q-range error, instead of deep inside the
// first Query's slot draw.
func TestNegativeInitialQRejected(t *testing.T) {
	cfg := DefaultConfig(ReplyQCD, detect.NewQCD(8, 64))
	cfg.InitialQ = -1
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "Q range") {
			t.Fatalf("InitialQ = -1: recovered %v, want the Q range validation error", r)
		}
	}()
	Run(pop(2, 7), cfg, tm)
}

func TestStateAndSchemeStrings(t *testing.T) {
	if StateReady.String() != "ready" || StateAcknowledged.String() != "acknowledged" {
		t.Error("state strings")
	}
	if TagState(9).String() != "TagState(9)" {
		t.Error("unknown state string")
	}
	if ReplyRN16.String() != "rn16" || ReplyQCD.String() != "qcd" || ReplyCRCCD.String() != "crccd" {
		t.Error("scheme strings")
	}
	if ReplyScheme(9).String() != "ReplyScheme(9)" {
		t.Error("unknown scheme string")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		p := pop(100, 8)
		return Run(p, DefaultConfig(ReplyRN16, nil), tm).Session.TimeMicros
	}
	if run() != run() {
		t.Error("gen2 inventory not deterministic")
	}
}
