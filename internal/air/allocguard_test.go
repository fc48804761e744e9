//go:build !race

// Allocation guards for the slot engine's zero-allocation invariant (see
// the package documentation). Excluded under the race detector, which
// instruments allocations and would trip the counts.

package air

import (
	"testing"

	"repro/internal/crc"
	"repro/internal/detect"
)

// TestRunSlotIdealChannelAllocatesNothing pins RunSlot over the ideal
// channel at exactly 0 allocs for QCD, CRC-CD and the oracle across
// every slot type, with a fresh scratch per slot — the invariant of the
// word kernel. If this fails, something on the kernel path (binding,
// overlap, classification, ID matching) regressed onto the heap.
func TestRunSlotIdealChannelAllocatesNothing(t *testing.T) {
	dets := []struct {
		name string
		det  detect.Detector
	}{
		{"qcd", detect.NewQCD(8, 64)},
		{"qcd-strength32", detect.NewQCD(32, 64)},
		{"crccd", detect.NewCRCCD(crc.CRC32IEEE, 64)},
		{"oracle", detect.NewOracle(1, 64)},
	}
	tags := pop(4, 1)
	cases := []struct {
		name  string
		count int
	}{
		{name: "idle", count: 0},
		{name: "single", count: 1},
		{name: "collided", count: 4},
	}
	for _, d := range dets {
		for _, c := range cases {
			responders := tags[:c.count]
			got := testing.AllocsPerRun(200, func() {
				o := RunSlot(d.det, responders, 0, 1)
				if o.Identified != nil {
					o.Identified.Identified = false
				}
			})
			if got != 0 {
				t.Errorf("%s/%s: RunSlot allocates %.1f/op, want 0", d.name, c.name, got)
			}
		}
	}
}

// TestSlotScratchReuseCRCCDSteadyState checks that CRC-CD, whose 96-bit
// framed unit cannot live inline, still reaches zero steady-state
// allocation on the generic path once a reused SlotScratch owns the
// buffers — the state every engine runs a wrapped detector in after its
// first slot — and on the word kernel. (A fresh scratch per generic slot
// pays for the payload and channel buffers; that transient is allowed.)
func TestSlotScratchReuseCRCCDSteadyState(t *testing.T) {
	crccd := detect.NewCRCCD(crc.CRC32IEEE, 64)
	tags := pop(4, 2)
	for _, det := range []detect.Detector{crccd, genericOnly{crccd}} {
		var sc SlotScratch
		// Warm-up: let the scratch grow its buffers.
		for i := 0; i < 4; i++ {
			o := sc.RunSlot(det, tags[:2], 0, 1)
			if o.Identified != nil {
				o.Identified.Identified = false
			}
		}
		got := testing.AllocsPerRun(200, func() {
			o := sc.RunSlot(det, tags[:2], 0, 1)
			if o.Identified != nil {
				o.Identified.Identified = false
			}
		})
		if got != 0 {
			t.Errorf("%T with reused scratch allocates %.1f/op in steady state, want 0", det, got)
		}
	}
}
