// Command covertchan transmits a message over any covert-channel
// scenario in the paper's attack space, declared as a ChannelSpec
// through flags, and reports the achieved transmission and error rates.
//
// Usage:
//
//	covertchan -model "Xeon E-2288G" -mechanism misalignment -text HELLO
//	covertchan -mechanism eviction -threading mt -d 3 -text HI
//	covertchan -model "Xeon E-2174G" -sgx -stealthy -text SECRET
//	covertchan -threading mt -defense partition -text HI
//	covertchan -list          # print the valid scenario space for -model
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/spec"
)

// toBits encodes text as a bit string, MSB first.
func toBits(text string) string {
	var b strings.Builder
	for _, c := range []byte(text) {
		for i := 7; i >= 0; i-- {
			b.WriteByte('0' + (c>>uint(i))&1)
		}
	}
	return b.String()
}

// fromBits decodes a bit string back to text.
func fromBits(bits string) string {
	var b strings.Builder
	for i := 0; i+8 <= len(bits); i += 8 {
		var c byte
		for j := 0; j < 8; j++ {
			c = c<<1 | (bits[i+j] - '0')
		}
		b.WriteByte(c)
	}
	return b.String()
}

func main() {
	var (
		model     = flag.String("model", "Gold 6226", "CPU model (Table I name)")
		mechanism = flag.String("mechanism", "", "eviction | misalignment | slowswitch (default eviction)")
		threading = flag.String("threading", "", "nonmt | mt (default nonmt)")
		sink      = flag.String("sink", "", "timing | power (default timing)")
		sgxOn     = flag.Bool("sgx", false, "put the sender inside an SGX enclave")
		stealthy  = flag.Bool("stealthy", false, "bit 0 executes decoy blocks instead of nothing")
		def       = flag.String("defense", "", "run the channel against a defended model: none | nosmt | eqpaths | norapl | partition (default none)")
		d         = flag.Int("d", 0, "receiver way count d (0 means the mechanism default)")
		p         = flag.Int("p", 0, "per-bit repetition parameter (0 means the mechanism default)")
		calib     = flag.Int("calib", 0, "calibration-preamble bits (0 means the default 40)")
		seed      = flag.Uint64("seed", 0, "channel seed (0 means the default 1)")
		text      = flag.String("text", "LEAKY", "message to transmit")
		list      = flag.Bool("list", false, "print the valid scenario space for -model and exit")
	)
	flag.Parse()

	cs := spec.ChannelSpec{
		Model:     *model,
		Mechanism: spec.Mechanism(*mechanism),
		Threading: spec.Threading(*threading),
		Sink:      spec.Sink(*sink),
		SGX:       *sgxOn,
		Stealthy:  *stealthy,
		Defense:   *def,
		D:         *d,
		P:         *p,
		CalibBits: *calib,
		Seed:      *seed,
	}

	m, err := cs.ResolveModel()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *list {
		fmt.Printf("valid covert-channel scenarios on %s:\n", m.Name)
		for _, s := range spec.Enumerate(m) {
			fmt.Printf("  %s\n", s)
		}
		return
	}

	if err := cs.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bits := toBits(*text)
	fmt.Printf("spec    : %s\n", cs)
	fmt.Printf("sending : %q (%d bits)\n", *text, len(bits))
	res, err := cs.Transmit(bits)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("channel : %s on %s\n", res.Channel, res.Model)
	fmt.Printf("received: %q\n", fromBits(res.Received))
	fmt.Printf("rate    : %.2f Kbps\n", res.RateKbps)
	fmt.Printf("errors  : %.2f%%\n", 100*res.ErrorRate)
}
