package metrics_test

import (
	"testing"

	"repro/internal/aloha"
	"repro/internal/btree"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/prng"
	"repro/internal/qtree"
	"repro/internal/stats"
	"repro/internal/tagmodel"
	"repro/internal/timing"
)

// requireFold fails unless the session recorded one delay per
// identification and its delay fold equals a fresh AddAll over
// DelaysMicros (== on finite, non-negative fields is bit equality).
func requireFold(t *testing.T, name string, s *metrics.Session) {
	t.Helper()
	if s.TagsIdentified == 0 || int64(len(s.DelaysMicros)) != s.TagsIdentified {
		t.Fatalf("%s: %d delays for %d identifications", name, len(s.DelaysMicros), s.TagsIdentified)
	}
	var want stats.Accumulator
	want.AddAll(s.DelaysMicros)
	if got := s.DelayFold(); got != want {
		t.Errorf("%s: fold n=%d mean=%v σ=%v, AddAll n=%d mean=%v σ=%v",
			name, got.N(), got.Mean(), got.StdDev(), want.N(), want.Mean(), want.StdDev())
	}
}

// TestEngineSessionsCarryTheirDelayFold: every engine records delays
// through Session.AddDelay, so the fold sim reads in place of walking
// the log equals that walk on the exact and stat frame-policy drivers,
// BT, a QT round that restarts and merges, and a mobile run that merges
// many BT rounds.
func TestEngineSessionsCarryTheirDelayFold(t *testing.T) {
	tm := timing.Model{TauMicros: 0.37}
	pop := func(n int, seed uint64) tagmodel.Population {
		return tagmodel.NewPopulation(n, 64, prng.New(seed))
	}
	qcd := detect.NewQCD(8, 64)
	qcdStat := aloha.StatModel{Name: qcd.Name(), ContentionBits: qcd.ContentionBits(), IDPhaseBits: qcd.IDPhaseBits(), Strength: 8}
	edfsa := aloha.EDFSAConfig{MaxFrame: 64}

	requireFold(t, "exact fsa", aloha.Exact(pop(300, 1), qcd, tm, aloha.Options{ConfirmEmpty: true}).FSA(aloha.NewSchoute(128)))
	requireFold(t, "exact edfsa", aloha.Exact(pop(300, 2), qcd, tm, aloha.Options{}).EDFSA(edfsa))
	requireFold(t, "exact q-adaptive", aloha.Exact(pop(300, 3), qcd, tm, aloha.Options{}).QAdaptive(aloha.DefaultQConfig()))
	requireFold(t, "stat fsa", aloha.Stat(300, qcdStat, tm, prng.New(4), aloha.Options{ConfirmEmpty: true}).FSA(aloha.NewSchoute(128)))
	requireFold(t, "stat edfsa", aloha.Stat(300, qcdStat, tm, prng.New(5), aloha.Options{}).EDFSA(edfsa))
	requireFold(t, "stat q-adaptive", aloha.Stat(300, qcdStat, tm, prng.New(6), aloha.Options{}).QAdaptive(aloha.DefaultQConfig()))
	requireFold(t, "bt", btree.Run(pop(300, 7), qcd, tm))

	// A 1-bit QCD on 16-bit IDs misses collisions whose overlapped ID
	// equals one responder's: that tag is read, the others are never
	// split, and the reader restarts from the root on the survivors,
	// merging the restart's session at its own end time. Seed 3
	// restarts twice, so one merge folds into an already merged session.
	weak := detect.NewQCD(1, 16)
	qt := qtree.Run(tagmodel.NewPopulation(200, 16, prng.New(3)), weak, tm, qtree.Options{})
	if qt.Session.Census.Frames < 3 {
		t.Fatalf("qt: %d frames, want two restarts; pick another seed", qt.Session.Census.Frames)
	}
	requireFold(t, "qt with restart", qt.Session)

	mob := mobility.Run(mobility.ProtoBT, qcd, mobility.Arrivals{RatePerSecond: 2000, DwellMicros: 100_000}, 500_000, 11)
	if mob.Rounds < 2 {
		t.Fatalf("mobility: %d rounds, want a merge of several", mob.Rounds)
	}
	requireFold(t, "mobility", &mob.Session)
}
