package experiment

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/qtree"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tagmodel"
	"repro/internal/timing"
	"repro/internal/trace"

	"repro/internal/aloha"
)

// Workloads evaluates ID-structure sensitivity: query trees walk the ID
// space, so a pallet of one vendor's sequential EPCs (a 60-bit shared
// prefix) costs them dearly, while FSA — which randomises in time, not in
// ID space — is indifferent. Includes the 4-ary tree as the classic
// mitigation.
func Workloads(o Options) (Renderable, error) {
	o = o.normalize()
	const n = 256
	t := report.NewTable("Workload shapes: slots to identify 256 tags (QCD-8)",
		"population", "shared prefix", "QT binary", "QT 4-ary", "FSA (F=256)")
	det := detect.NewQCD(8, 96)
	detFSA := detect.NewQCD(8, 96)
	tm := timing.Default

	for _, kind := range trace.Kinds() {
		var qtBin, qtQuad, fsa stats.Accumulator
		shared := 0
		seeds := prng.New(o.Seed)
		for r := 0; r < o.Rounds; r++ {
			seed := seeds.Uint64()
			build := func() tagmodel.Population {
				pop, err := trace.Build(trace.Spec{Kind: kind, N: n, IDBits: 96}, prng.New(seed))
				if err != nil {
					panic(err)
				}
				return pop
			}
			pop := build()
			shared = trace.SharedPrefixLen(pop)
			qtBin.Add(float64(qtree.Run(pop, det, tm, qtree.Options{FanoutBits: 1}).Session.Census.Slots()))
			qtQuad.Add(float64(qtree.Run(build(), det, tm, qtree.Options{FanoutBits: 2}).Session.Census.Slots()))
			fsa.Add(float64(aloha.Exact(build(), detFSA, tm, aloha.Options{}).FSA(aloha.NewFixed(n)).Census.Slots()))
		}
		t.AddRow(string(kind),
			fmt.Sprintf("%d bits", shared),
			report.F(qtBin.Mean(), 0),
			report.F(qtQuad.Mean(), 0),
			report.F(fsa.Mean(), 0))
	}
	t.AddNote("FSA slot counts are flat across shapes; QT pays one collided level per shared-prefix bit (binary) or per two bits (4-ary)")
	return t, nil
}
