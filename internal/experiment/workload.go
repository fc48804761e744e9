package experiment

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/prng"
	"repro/internal/qtree"
	"repro/internal/report"
	"repro/internal/sim"
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

	kinds := trace.Kinds()
	// A round yields the shared prefix length and the slots of binary QT,
	// 4-ary QT and FSA.
	rounds := perRound(o, len(kinds), func(k int, seed uint64, _ *sim.RoundScratch) []float64 {
		build := func() tagmodel.Population {
			pop, err := trace.Build(trace.Spec{Kind: kinds[k], N: n, IDBits: 96}, prng.New(seed))
			if err != nil {
				panic(err)
			}
			return pop
		}
		pop := build()
		return []float64{
			float64(trace.SharedPrefixLen(pop)),
			float64(qtree.Run(pop, det, tm, qtree.Options{FanoutBits: 1}).Session.Census.Slots()),
			float64(qtree.Run(build(), det, tm, qtree.Options{FanoutBits: 2}).Session.Census.Slots()),
			float64(aloha.Exact(build(), detFSA, tm, aloha.Options{}).FSA(aloha.NewFixed(n)).Census.Slots()),
		}
	})
	for k, kind := range kinds {
		last, m := rounds[k][len(rounds[k])-1], means(rounds[k])
		t.AddRow(string(kind),
			fmt.Sprintf("%d bits", int(last[0])),
			report.F(m[1], 0),
			report.F(m[2], 0),
			report.F(m[3], 0))
	}
	t.AddNote("FSA slot counts are flat across shapes; QT pays one collided level per shared-prefix bit (binary) or per two bits (4-ary)")
	return t, nil
}
