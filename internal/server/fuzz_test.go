package server

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/rescache"
	"repro/internal/sim"
)

// FuzzSubmitKey feeds arbitrary bytes through the submission front end:
// each body is strictly decoded as an experiment and as a sweep
// request, and every configuration either yields goes through Validate,
// Canonical and rescache.ConfigKey. Nothing may panic, Canonical must
// be idempotent, a config and its canonical form must share a key, and
// a sweep must never expand past the server's cell cap.
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
	} {
		f.Add([]byte(seed))
	}
	opts := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		var sub SubmitRequest
		if decodes(body, &sub) {
			checkKey(t, sub.Config)
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
		if len(cells) > opts.SweepMaxCells {
			t.Fatalf("sweep expanded to %d cells, above the cap of %d", len(cells), opts.SweepMaxCells)
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

func checkKey(t *testing.T, c sim.Config) {
	t.Helper()
	if c.Validate() != nil {
		return
	}
	canon := c.Canonical()
	if again := canon.Canonical(); again != canon {
		t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", canon, again)
	}
	k1, err := rescache.ConfigKey(c)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := rescache.ConfigKey(canon)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("ConfigKey(c) = %s, ConfigKey(c.Canonical()) = %s for %+v", k1, k2, c)
	}
}
