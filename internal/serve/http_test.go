package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestRunHTTPDrainsSilentConnection opens a raw TCP connection that
// never sends a request, then cancels: the drain must close it and
// return nil well inside a drain timeout shorter than the 5 s for which
// http.Server.Shutdown would otherwise count it as active.
func TestRunHTTPDrainsSilentConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	go func() { done <- RunHTTP(ctx, ln, handler, HTTPConfig{DrainTimeout: 500 * time.Millisecond}) }()

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts in order, so once a later connection has been
	// served the silent one has been accepted and is in StateNew.
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunHTTP did not return")
	}
	silent.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection read = %d, %v; want closed (EOF)", n, err)
	}
}
