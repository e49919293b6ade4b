package corpus

import (
	"bytes"
	"testing"
)

// TestPayloadMatchesPattern checks the doubling fill against the
// byte-at-a-time construction it replaces.
func TestPayloadMatchesPattern(t *testing.T) {
	n := uint64(len(payloadSrc))
	for _, size := range []uint64{0, 1, n - 1, n, n + 1, 4<<10 + 3, 1 << 20} {
		want := make([]byte, size)
		for i := range want {
			want[i] = payloadSrc[i%len(payloadSrc)]
		}
		if got := payload(size); !bytes.Equal(got, want) {
			t.Errorf("payload(%d) differs from the repeated pattern", size)
		}
	}
}
