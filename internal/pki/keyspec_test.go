package pki

import "testing"

// Normalize keeps an RSA spec's modulus and drops Bits from every
// fixed-strength algorithm, so specs that name the same key compare equal
// however the caller spelled them (the key pool matches on equality).
func TestNormalizeDropsBitsFromFixedStrengthAlgorithms(t *testing.T) {
	for _, alg := range KeyAlgorithms() {
		want := 0
		if alg == AlgRSA {
			want = 3072
		}
		if got := (KeySpec{Algorithm: alg, Bits: 3072}).Normalize(); got != (KeySpec{Algorithm: alg, Bits: want}) {
			t.Errorf("%v: Normalize = %+v, want Bits %d", alg, got, want)
		}
	}
}
