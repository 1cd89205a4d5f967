package api

import (
	"encoding/base64"
	"math"
	"testing"
)

// FuzzDecodeCursor throws arbitrary strings at the cursor decoder, which
// parses client input: every input must either fail or decode to a
// position that survives an encode/decode round trip, and none may panic.
func FuzzDecodeCursor(f *testing.F) {
	f.Add("")
	for _, n := range []uint64{0, 1, math.MaxUint64} {
		f.Add(encodeCursor(n))
	}
	// Near misses: no position, signs, overflow, leading zeros, another
	// version, padding, the raw (unencoded) form.
	for _, raw := range []string{"v1:", "v1:-1", "v1:+5", "v1:18446744073709551616", "v1:007", "v2:5", "v1:5 "} {
		f.Add(base64.RawURLEncoding.EncodeToString([]byte(raw)))
	}
	f.Add(base64.URLEncoding.EncodeToString([]byte("v1:5")))
	f.Add("v1:5")
	f.Add("!!!")
	f.Fuzz(func(t *testing.T, s string) {
		n, err := decodeCursor(s)
		if err != nil {
			return
		}
		back, err := decodeCursor(encodeCursor(n))
		if err != nil || back != n {
			t.Fatalf("cursor %q decodes to %d, which round-trips to %d (%v)", s, n, back, err)
		}
	})
}
