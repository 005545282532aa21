package tracerec

import (
	"strconv"
	"strings"
	"testing"

	"flowguard/internal/apps"
)

// TestRecordRefusesWrappedTrace: a training trace that outgrows its
// buffer is an error naming the app and the capacity, never the suffix
// a wrap leaves; with room, the same run returns its whole trace.
func TestRecordRefusesWrappedTrace(t *testing.T) {
	a, err := apps.ByName("nginx")
	if err != nil {
		t.Fatal(err)
	}
	input := a.MakeInput(10, 1)
	raw, st, err := Record(a, input, 500_000_000, 64<<20)
	if err != nil || !st.Exited || len(raw) == 0 {
		t.Fatalf("recording with room: %d bytes, %v, %v", len(raw), st, err)
	}
	small := len(raw) / 2
	got, _, err := Record(a, input, 500_000_000, small)
	if err == nil {
		t.Fatalf("a %d-byte trace in a %d-byte buffer returned %d bytes and no error", len(raw), small, len(got))
	}
	if msg := err.Error(); !strings.Contains(msg, "nginx") || !strings.Contains(msg, strconv.Itoa(small)) {
		t.Fatalf("error %q names neither the app nor the capacity %d", msg, small)
	}
}
