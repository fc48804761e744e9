// Gen2compat: the paper claims QCD "does not require any modification on
// upper-level air protocols". This example tests that claim at the
// command level: a full EPC Gen-2 inventory round — Query, QueryRep, ACK,
// RN16 handshake, Q-algorithm, with reader command airtime charged —
// where the slot-opening tag reply is (a) the stock bare RN16, (b) the
// CRC-CD unit, or (c) the QCD preamble. Only the reply format changes;
// the command machinery is shared.
package main

import (
	"fmt"
	"log"

	rfid "repro"
)

func main() {
	const tags = 500

	fmt.Printf("EPC Gen-2 inventory of %d tags, command airtime charged\n\n", tags)
	fmt.Printf("%-22s %12s %12s %10s %12s\n",
		"slot-opening reply", "total time", "wasted ACKs", "queries", "cmd bits")

	type scheme struct {
		name string
		cfg  rfid.Gen2Config
	}
	schemes := []scheme{
		{"RN16 (stock Gen-2)", rfid.NewGen2Config(rfid.Gen2RN16, nil)},
		{"CRC-CD (EPC+CRC32)", mustCRCCD()},
		{"QCD-8 preamble", rfid.NewGen2Config(rfid.Gen2QCD, rfid.NewQCD(8, 64))},
	}

	var rn16Time float64
	for i, s := range schemes {
		pop := rfid.NewPopulation(tags, 64, 2026)
		res := rfid.RunGen2(pop, s.cfg)
		if !pop.AllIdentified() {
			log.Fatalf("%s: inventory incomplete", s.name)
		}
		fmt.Printf("%-22s %10.0fμs %12d %10d %12d\n",
			s.name, res.Session.TimeMicros, res.WastedACKs, res.Queries, res.CommandBits)
		if i == 0 {
			rn16Time = res.Session.TimeMicros
		} else {
			gain := (rn16Time - res.Session.TimeMicros) / rn16Time
			fmt.Printf("%-22s %11.1f%% vs stock Gen-2\n", "", 100*gain)
		}
	}

	fmt.Println("\nthe stock RN16 reply has no self-check, so every collided slot the")
	fmt.Println("reader opens costs a full wasted ACK exchange; QCD screens those out")
	fmt.Println("with a 16-bit preamble, while CRC-CD drags the 96-bit unit into every slot.")
}

func mustCRCCD() rfid.Gen2Config {
	det, ok := rfid.NewCRCCD("CRC-32/IEEE", 64)
	if !ok {
		log.Fatal("missing CRC preset")
	}
	return rfid.NewGen2Config(rfid.Gen2CRCCD, det)
}
