package onocd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestOpenShortFingerprint: the remote banner shows at most 12 characters
// of the daemon's fingerprint, and a shorter one, which only a foreign
// server sends, opens without a panic.
func TestOpenShortFingerprint(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"fingerprint": "abc"}`) //nolint:errcheck
	}))
	defer hs.Close()
	_, conf, banner, err := Open(context.Background(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if want := "remote engine abc at " + hs.URL + "\n"; banner != want || conf.Fingerprint != "abc" {
		t.Errorf("banner %q, fingerprint %q; want %q, %q", banner, conf.Fingerprint, want, "abc")
	}
}
