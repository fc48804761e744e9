package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfInnermostRepoFrameWins(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"repro/internal/bitstr.Word.HasPrefix", "repro/internal/detect.(*QCD).Classify",
			"repro/internal/air.RunSlot", "repro/internal/sim.runRound"}, "bitstr"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/sched.(*Frame).Build",
			"repro/internal/aloha.RunFSA"}, "sched"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/server.writeJSON",
			"net/http.HandlerFunc.ServeHTTP"}, "server"},
		{[]string{"repro/internal/obs/tsdb.(*Store).Sample", "repro/internal/server.(*Server).sampleLoop"}, "obs"},
		{[]string{"repro/internal/epc.PaperCases", "repro/internal/experiment.Table7"}, "other"},
		{[]string{"repro.Run", "main.main"}, "other"},
		{[]string{"encoding/json.Unmarshal", "main.(*client).call", "main.measure.func1"}, "bench"},
		{[]string{"repro/bench.(*client).call", "repro/internal/server.(*Server).handleSubmit"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read",
			"net/http.(*persistConn).readLoop"}, "net"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestFoldSharesSumToOne(t *testing.T) {
	samples := []sample{
		{[]string{"repro/internal/air.RunSlot", "repro/internal/sim.runRound"}, 30},
		{[]string{"repro/internal/btree.Run"}, 50},
		{[]string{"runtime.gcBgMarkWorker"}, 15},
		{[]string{"runtime.mcall"}, 5},
	}
	share, total := fold(samples)
	if total != 100 {
		t.Fatalf("total %d, want 100", total)
	}
	if len(share) != len(layers) {
		t.Fatalf("%d layers reported, want every one of %d", len(share), len(layers))
	}
	var sum float64
	for _, s := range share {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	for l, want := range map[string]float64{"air": 0.3, "btree": 0.5, "gc": 0.15, "runtime": 0.05, "server": 0} {
		if math.Abs(share[l]-want) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, share[l], want)
		}
	}
	if share, total := fold(nil); total != 0 || len(share) != len(layers) {
		t.Fatalf("empty fold: total %d, %d layers", total, len(share))
	}
}

// TestReadProfileDecodesRuntimeProfiles round-trips a real CPU profile
// of a busy loop in this package.
func TestReadProfileDecodesRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(200 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if layerOf([]string{fn}) == "bench" && strings.HasSuffix(fn, ".spin") {
				inSpin += s.value
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("profile: %d ns total, %d ns in spin; want most of it in the loop", total, inSpin)
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}
