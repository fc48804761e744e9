package metrics

import (
	"encoding/binary"
	"testing"

	"repro/internal/air"
	"repro/internal/signal"
	"repro/internal/stats"
	"repro/internal/tagmodel"
)

// checkFold fails unless s's delay fold equals a fresh AddAll over its
// DelaysMicros, bit for bit: the delays are finite and non-negative, so
// == on the accumulator's fields compares their bits.
func checkFold(t *testing.T, what string, s *Session) {
	t.Helper()
	var want stats.Accumulator
	want.AddAll(s.DelaysMicros)
	if got := s.DelayFold(); got != want {
		t.Fatalf("%s: fold n=%d mean=%v var=%v min=%v max=%v, AddAll over %d delays n=%d mean=%v var=%v min=%v max=%v",
			what, got.N(), got.Mean(), got.Variance(), got.Min(), got.Max(),
			len(s.DelaysMicros), want.N(), want.Mean(), want.Variance(), want.Min(), want.Max())
	}
}

// fuzzValue decodes a finite, usually non-integral value from 5 bytes:
// a 32-bit magnitude over a small divisor, so nearby values differ in
// their low bits and any change of fold order shows.
func fuzzValue(b []byte) float64 {
	return float64(binary.LittleEndian.Uint32(b)) / float64(1+b[4]%97)
}

// FuzzSessionDelayFold drives a session, and a second session merged
// into it, through random sequences of Record (identified or not),
// stat-style AddDelay appends, offset merges and resets. After every
// step each session's fold must equal AddAll over its delay log.
func FuzzSessionDelayFold(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 3})
	f.Add([]byte{
		0, 1, 2, 3, 4, 5, 2, 200, 1, 0, 0, 7, 1, 9, 9, 9, 9, 9,
		5, 50, 0, 0, 0, 1, 5, 51, 0, 0, 0, 13, 3, 7, 7, 0, 0, 11,
		0, 255, 255, 255, 255, 96, 4, 0, 0, 0, 0, 0, 2, 17, 0, 0, 0, 2,
	})
	f.Add([]byte{
		5, 1, 0, 0, 0, 1, 5, 2, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0,
		3, 100, 0, 0, 0, 3, 6, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 1,
	})
	f.Add([]byte{2, 0, 0, 0, 128, 0, 2, 0, 0, 0, 64, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 2, 3, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s, side Session
		for ; len(ops) >= 6; ops = ops[6:] {
			v := fuzzValue(ops[1:6])
			switch ops[0] % 7 {
			case 0: // an identified slot, as the exact engines record it
				tag := tagmodel.Tag{IdentifiedAtMicros: v}
				s.Record(air.Outcome{Truth: signal.Single, Declared: signal.Single, Identified: &tag, Bits: 80}, v)
			case 1: // an idle or collided slot: no delay
				s.Record(air.Outcome{Truth: signal.Collided, Declared: signal.Collided, Bits: 16}, v)
			case 2: // a stat-mode append
				s.AddDelay(v)
			case 3: // a restart round: side follows s's clock
				s.Merge(&side, v)
			case 4:
				s.Reset()
			case 5:
				side.AddDelay(v)
			case 6:
				side.Reset()
			}
			checkFold(t, "session", &s)
			checkFold(t, "merged session", &side)
		}
	})
}
