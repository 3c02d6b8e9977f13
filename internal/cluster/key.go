package cluster

import (
	"encoding/hex"
	"fmt"
)

// Key identifies one sweep cell fleet-wide: the (trace digest,
// warmup, configuration fingerprint) triple that also keys the BPC1
// checkpoint cache. Key.String is the canonical wire form and is
// byte-identical to the service layer's single-flight cell key, so a
// cell claimed in-process and a cell routed across the cluster share
// one identity.
type Key struct {
	Digest      [32]byte
	Warmup      uint64
	Fingerprint string
}

// String renders the canonical form:
// <64 lowercase hex digits>|<minimal decimal warmup>|<fingerprint>.
// The fingerprint may itself contain '|' separators (core.Config
// fingerprints do); the fixed-width digest and the separator-free
// warmup still keep distinct keys on distinct strings.
func (k Key) String() string {
	return fmt.Sprintf("%x|%d|%s", k.Digest[:], k.Warmup, k.Fingerprint)
}

// parseDigest decodes a full hex trace digest.
func parseDigest(hexDigest string) ([32]byte, error) {
	var d [32]byte
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("cluster: bad trace digest %q", hexDigest)
	}
	copy(d[:], raw)
	return d, nil
}
