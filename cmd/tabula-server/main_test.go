package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The listening server bounds how long a client may take to send a
// request and how long an idle connection lives, sets no write timeout
// (a cube build over POST /v1/exec may run for minutes), and hands every
// request a context derived from the one it was built with.
func TestNewHTTPServerTimeouts(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "base")
	h := http.NewServeMux()
	srv := newHTTPServer(ctx, ":0", h, defaultTimeouts)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("server listens on %q with handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != defaultTimeouts.readHeader || srv.ReadTimeout != defaultTimeouts.read || srv.IdleTimeout != defaultTimeouts.idle {
		t.Fatalf("timeouts: read header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout < srv.ReadHeaderTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts must be positive, the header deadline within the request's: %v, %v, %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}
	if srv.BaseContext == nil || srv.BaseContext(nil).Value(key{}) != "base" {
		t.Fatal("request contexts do not derive from the server's context")
	}
}

// A handler that runs far longer than every connection timeout, the
// read timeout included — a cube build over POST /v1/exec — keeps a live
// request context and gets its answer out, whether or not the request
// had a body.
func TestLongRequestOutlivesTimeouts(t *testing.T) {
	const short = 50 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			t.Errorf("reading the body: %v", err)
		}
		select {
		case <-r.Context().Done():
			io.WriteString(w, r.Context().Err().Error())
		case <-time.After(5 * short):
			io.WriteString(w, "live")
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(context.Background(), ln.Addr().String(), h, timeouts{readHeader: short, read: short, idle: short})
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String() + "/"
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(`{"sql":"CREATE TABLE ..."}`)
		}
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != "live" {
			t.Fatalf("%s: the handler saw %q (%v), want a live context", method, got, err)
		}
	}
}
