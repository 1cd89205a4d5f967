package netsim

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var origin = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func TestClockAdvance(t *testing.T) {
	c := NewClock(origin)
	if !c.Now().Equal(origin) {
		t.Fatal("origin mismatch")
	}
	c.Advance(24 * time.Hour)
	if got := c.Now(); !got.Equal(origin.Add(24 * time.Hour)) {
		t.Fatalf("Advance: %v", got)
	}
}

func TestClockRejectsBackwards(t *testing.T) {
	c := NewClock(origin)
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	c.Set(origin.Add(-time.Hour))
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	c := NewClock(origin)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock(origin)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Advance(time.Minute)
		}()
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(origin.Add(50 * time.Minute)) {
		t.Fatalf("concurrent advance: %v", got)
	}
}

func echoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ip=%s time=%s path=%s ua=%s",
			r.Header.Get(HeaderClientIP), r.Header.Get(HeaderSimTime),
			r.URL.Path, r.UserAgent())
	})
}

func TestTransportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Register("shop.example.com", echoHandler())
	clk := NewClock(origin)
	src := netip.AddrFrom4([4]byte{10, 0, 0, 10})
	tr := NewTransport(reg, clk, src)

	req, _ := http.NewRequest("GET", "http://shop.example.com/product/42", nil)
	req.Header.Set("User-Agent", "test-agent")
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := "ip=10.0.0.10 time=2013-01-01T00:00:00Z path=/product/42 ua=test-agent"
	if string(body) != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
}

func TestTransportNXDomain(t *testing.T) {
	tr := NewTransport(NewRegistry(), NewClock(origin), netip.AddrFrom4([4]byte{10, 0, 0, 1}))
	req, _ := http.NewRequest("GET", "http://nowhere.example/", nil)
	_, err := tr.RoundTrip(req)
	var nx *NXDomainError
	if !errors.As(err, &nx) {
		t.Fatalf("err = %v, want NXDomainError", err)
	}
	if nx.Domain != "nowhere.example" {
		t.Fatalf("domain = %q", nx.Domain)
	}
}

func TestTransportViaClient(t *testing.T) {
	reg := NewRegistry()
	reg.Register("shop.example.com", echoHandler())
	tr := NewTransport(reg, NewClock(origin), netip.AddrFrom4([4]byte{10, 2, 0, 10}))
	client := tr.Client(nil)
	resp, err := client.Get("http://shop.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestTransportCookiesPersist(t *testing.T) {
	reg := NewRegistry()
	reg.Register("login.example.com", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, err := r.Cookie("session"); err == nil {
			fmt.Fprintf(w, "session=%s", c.Value)
			return
		}
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "abc123", Path: "/"})
		fmt.Fprint(w, "new")
	}))
	jar, _ := cookiejar.New(nil)
	tr := NewTransport(reg, NewClock(origin), netip.AddrFrom4([4]byte{10, 1, 0, 10}))
	client := tr.Client(jar)

	r1, err := client.Get("http://login.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	if string(b1) != "new" {
		t.Fatalf("first visit = %q", b1)
	}
	r2, err := client.Get("http://login.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if string(b2) != "session=abc123" {
		t.Fatalf("second visit = %q", b2)
	}
}

func TestRegistryReplaceAndDomains(t *testing.T) {
	reg := NewRegistry()
	reg.Register("x.example.com", echoHandler())
	reg.Register("X.EXAMPLE.COM", http.NotFoundHandler()) // case-insensitive replace
	if got := len(reg.Domains()); got != 1 {
		t.Fatalf("domains = %d, want 1", got)
	}
	h, ok := reg.Lookup("x.example.com")
	if !ok {
		t.Fatal("lookup failed")
	}
	req, _ := http.NewRequest("GET", "http://x.example.com/", nil)
	tr := NewTransport(reg, NewClock(origin), netip.AddrFrom4([4]byte{10, 0, 0, 3}))
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replacement handler not used: %d", resp.StatusCode)
	}
	_ = h
}

func TestConcurrentTransportUse(t *testing.T) {
	reg := NewRegistry()
	var served atomic.Int32
	echo := echoHandler()
	reg.Register("c.example.com", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		echo.ServeHTTP(w, r)
	}))
	tr := NewTransport(reg, NewClock(origin), netip.AddrFrom4([4]byte{10, 0, 1, 10}))
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("GET", "http://c.example.com/", nil)
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if got := served.Load(); got != 30 {
		t.Fatalf("served = %d", got)
	}
}
