package crc

import "repro/internal/bitstr"

// Cost quantifies what a detection scheme demands of a tag's IC, the
// dimensions of the paper's Table IV: instruction count per checksum,
// asymptotic complexity, working memory, and bits on the air per
// contention slot.
type Cost struct {
	Scheme         string
	Instructions   int64  // register operations to produce one checksum
	Complexity     string // big-O in the payload length l
	MemoryBits     int    // working storage a tag must dedicate
	TransmitBits   int    // bits transmitted in an idle/collided slot
	LookupTableB   int    // reader-side lookup table bytes (0 if none)
	GateEstimate   int    // rough combinational gate count on the tag
	InstrPerBitHot float64
}

// CRCCDCost measures the tag-side cost of CRC-CD for an idBits-bit ID
// protected by parameter set p, by actually running the instrumented
// bit-serial engine over a worst-case (all-ones) payload.
func CRCCDCost(p Params, idBits int) Cost {
	payload := allOnes(idBits)
	_, ops := ChecksumBitsCounted(p, payload)
	return Cost{
		Scheme:         "CRC-CD (" + p.Name + ")",
		Instructions:   ops,
		Complexity:     "O(l)",
		MemoryBits:     p.Width + idBits, // register plus the ID being fed
		TransmitBits:   idBits + p.Width,
		LookupTableB:   TableFor(p).SizeBytes(),
		GateEstimate:   gateEstimateCRC(p),
		InstrPerBitHot: float64(ops) / float64(idBits),
	}
}

// QCDCost measures the tag-side cost of QCD at the given strength
// (random-integer length in bits): one bitwise complement instruction and
// 2·strength bits of preamble state.
func QCDCost(strength int) Cost {
	return Cost{
		Scheme:         "QCD",
		Instructions:   1, // r̄ is a single bitwise-NOT over the register
		Complexity:     "O(1)",
		MemoryBits:     2 * strength,
		TransmitBits:   2 * strength,
		LookupTableB:   0,
		GateEstimate:   strength, // one inverter per preamble bit
		InstrPerBitHot: 1.0 / float64(strength),
	}
}

// gateEstimateCRC approximates the combinational logic of a serial CRC:
// one flip-flop plus feedback XOR per register bit, and an XOR tap per set
// polynomial bit; a standard ballpark of ~8 gates per tap-and-register bit.
func gateEstimateCRC(p Params) int {
	taps := 0
	for i := 0; i < p.Width; i++ {
		if p.Poly>>uint(i)&1 == 1 {
			taps++
		}
	}
	return 8*p.Width + 4*taps
}

func allOnes(n int) bitstr.BitString {
	return bitstr.Not(bitstr.New(n))
}
