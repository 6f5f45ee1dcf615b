package main

import (
	"net"
	"testing"
)

// TestURLRoot: download links persist the URL root, so it must name the
// address a listener actually bound, with localhost for an unspecified
// host.
func TestURLRoot(t *testing.T) {
	for _, tc := range []struct{ bound, want string }{
		{"[::]:8081", "http://localhost:8081"},
		{"0.0.0.0:8081", "http://localhost:8081"},
		{":8081", "http://localhost:8081"},
		{"127.0.0.1:8081", "http://127.0.0.1:8081"},
		{"[::1]:9000", "http://[::1]:9000"},
		{"example.org:80", "http://example.org:80"},
	} {
		if got := urlRoot(tcpAddr(tc.bound)); got != tc.want {
			t.Errorf("urlRoot(%s) = %s, want %s", tc.bound, got, tc.want)
		}
	}

	// -addr with port 0: the root names the port the kernel chose.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, port, _ := net.SplitHostPort(ln.Addr().String())
	if got := urlRoot(ln.Addr()); got != "http://127.0.0.1:"+port || port == "0" {
		t.Fatalf("urlRoot of a listener on port 0 = %s, bound %s", got, ln.Addr())
	}
}

// tcpAddr is a net.Addr that prints as s.
type tcpAddr string

func (a tcpAddr) Network() string { return "tcp" }
func (a tcpAddr) String() string  { return string(a) }
