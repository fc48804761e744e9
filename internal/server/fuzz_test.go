package server

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/rescache"
	"repro/internal/sim"
)

// FuzzSubmitKey feeds arbitrary bytes through the submission front end:
// each body is strictly decoded as an experiment, a sweep and a
// scenario request and normalised by the prepare function handleSubmit
// calls for that kind (sweeps under the default cell cap). Nothing may
// panic; a valid config must key, Canonical must be idempotent and a
// config and its canonical form must share a key, for experiments and
// every sweep cell; a sweep that expands must plan, to the same cell
// count and never past the cap; and a scenario's defaults must be
// idempotent.
func FuzzSubmitKey(f *testing.F) {
	for _, seed := range []string{
		`{"config":{"Tags":60,"Seed":42,"Rounds":3,"Algorithm":"fsa","FrameSize":40,"Detector":"qcd","Strength":8}}`,
		`{"config":{"Tags":60,"Seed":42,"Rounds":3,"Algorithm":"fsa","FrameSize":40,"Detector":"qcd","Workers":3,"IDBits":64,"Mode":"exact"}}`,
		`{"config":{"Tags":200,"Algorithm":"qadaptive","Detector":"crccd","Mode":"stat"}}`,
		`{"config":{"Tags":200,"Seed":3,"Algorithm":"bt","Detector":"qcd","BER":0.05}}`,
		`{"config":{"Tags":-1}}`,
		`{"spec":{"name":"fig5","base":{"Tags":60,"Seed":42,"Rounds":3,"Algorithm":"fsa","FrameSize":40,"Detector":"qcd"},` +
			`"axes":[{"field":"case","cases":[{"name":"I","tags":40,"frame":40},{"name":"II","tags":80,"frame":40}]},` +
			`{"field":"strength","ints":[4,8]}]}}`,
		`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"seed","range":{"from":1,"to":9000}}]}}`,
		`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"seed","range":{"from":1,"to":40}}],"max_cells":100000}}`,
		`{"spec":{"base":{"Tags":30,"Algorithm":"fsa","FrameSize":16,"Detector":"qcd"},"axes":[{"field":"mode","strings":["exact","stat"]}]}}`,
		`{}`,
		`[`,
		`{"spec":{"name":"flow","side_metres":24,"readers":16,"read_range_metres":5,"interference_radius_metres":9,` +
			`"arrivals_per_second":4000,"dwell_micros":150000,"duration_micros":400000,"session_micros":2000,"seed":7}}`,
		`{"spec":{"arrivals_per_second":100000,"dwell_micros":50000,"exponential_dwell":true,"duration_micros":1000000,"workers":4}}`,
		`{"spec":{"readers":-3,"side_metres":-1,"arrivals_per_second":-1,"duration_micros":0,"epochs_per_progress":-2}}`,
		`{"spec":{"side_metres":1e12,"read_range_metres":1e-3,"arrivals_per_second":4000,"dwell_micros":150000,"duration_micros":400000}}`,
	} {
		f.Add([]byte(seed))
	}
	for _, seed := range hostileSweepBodies {
		f.Add([]byte(seed))
	}
	opts := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		var exp SubmitRequest
		if decodes(body, &exp) {
			checkKey(t, exp.Config)
		}
		var scn ScenarioSubmitRequest
		if decodes(body, &scn) {
			spec, _ := prepareScenario(scn)
			if again := spec.WithDefaults(); again != spec {
				t.Fatalf("WithDefaults is not idempotent:\n%+v\n%+v", spec, again)
			}
		}
		var sw SweepSubmitRequest
		if !decodes(body, &sw) {
			return
		}
		spec := opts.capCells(sw.Spec)
		if spec.Validate() != nil {
			return
		}
		cells, err := spec.Expand()
		if err != nil {
			return
		}
		p, err := opts.prepareSweep(sw)
		if err != nil {
			t.Fatalf("prepareSweep rejected a spec that expands: %v", err)
		}
		if len(cells) > opts.SweepMaxCells || len(cells) != p.plan.Len() {
			t.Fatalf("sweep expanded to %d cells, planned %d, cap %d", len(cells), p.plan.Len(), opts.SweepMaxCells)
		}
		for _, c := range cells {
			checkKey(t, c.Config)
		}
	})
}

// decodes runs body through the handlers' strict decoder.
func decodes(body []byte, v any) bool {
	return decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)), v)
}

// checkKey prepares a valid c as an experiment body and checks its
// canonical form and key.
func checkKey(t *testing.T, c sim.Config) {
	t.Helper()
	if c.Validate() != nil {
		return
	}
	p, err := prepareExperiment(SubmitRequest{Config: c})
	if err != nil {
		t.Fatal(err)
	}
	if again := p.cfg.Canonical(); again != p.cfg {
		t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", p.cfg, again)
	}
	k, err := rescache.ConfigKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if k != p.key {
		t.Fatalf("ConfigKey(c) = %s, ConfigKey(c.Canonical()) = %s for %+v", k, p.key, c)
	}
}
