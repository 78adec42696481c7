// SGX leakage example: a sender inside an enclave exfiltrates a secret
// through the frontend to an unprivileged receiver outside (Section
// VIII) — the enclave boundary costs bandwidth but does not stop the
// channel.
package main

import (
	"fmt"

	leaky "repro"
)

func main() {
	m := leaky.XeonE2174G()
	secretBits := leaky.Alternating(48)

	plain := leaky.Transmit(leaky.ChannelSpec{Mechanism: leaky.MechanismEviction}.Build(m), m.Name, secretBits)
	enclave := leaky.Transmit(leaky.ChannelSpec{Mechanism: leaky.MechanismEviction, SGX: true}.Build(m), m.Name, secretBits)

	fmt.Printf("platform: %s (SGX-capable)\n\n", m.Name)
	fmt.Printf("%-42s %10.1f Kbps   err %5.2f%%\n", plain.Channel, plain.RateKbps, 100*plain.ErrorRate)
	fmt.Printf("%-42s %10.1f Kbps   err %5.2f%%\n", enclave.Channel, enclave.RateKbps, 100*enclave.ErrorRate)
	fmt.Printf("\nenclave boundary costs %.0fx bandwidth (paper: ~25-30x), but the secret still leaks\n",
		plain.RateKbps/enclave.RateKbps)
}
