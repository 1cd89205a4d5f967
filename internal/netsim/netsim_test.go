package netsim

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/netip"
	"reflect"
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

// TestResponseMatchesRecorder holds the fabric's response writer to
// net/http's recorder, which the fabric used to answer through: for each
// handler the status, status line, header and body must be the
// recorder's, and the response must declare its body's exact length.
func TestResponseMatchesRecorder(t *testing.T) {
	handlers := map[string]http.HandlerFunc{
		"sniffed page": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "<!DOCTYPE html><html><body>hi</body></html>")
		},
		"sniffed bytes": func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte{0, 1, 2, 3, 0xff})
		},
		"typed, in pieces": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"a":`))
			io.WriteString(w, "1}")
			fmt.Fprint(w, "\n")
		},
		"error": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "service unavailable", http.StatusServiceUnavailable)
		},
		"not found": func(w http.ResponseWriter, r *http.Request) {
			http.NotFound(w, r)
		},
		"cookie and redirect": func(w http.ResponseWriter, r *http.Request) {
			http.SetCookie(w, &http.Cookie{Name: "account", Value: "alice", Path: "/"})
			http.Redirect(w, r, "/", http.StatusFound)
		},
		"header after the first write": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Before", "1")
			io.WriteString(w, "body")
			w.Header().Set("X-After", "2")
			w.Header().Del("X-Before")
			w.WriteHeader(http.StatusTeapot)
		},
		"header after WriteHeader": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			w.Header().Set("X-After", "2")
			io.WriteString(w, "late")
		},
		"no write": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Only", "header")
		},
		"status only": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		},
	}
	reg := NewRegistry()
	for name, h := range handlers {
		reg.Register("h.example.com", h)
		req, _ := http.NewRequest("GET", "http://h.example.com/x", nil)
		resp, err := NewTransport(reg, NewClock(origin), netip.AddrFrom4([4]byte{10, 0, 0, 9})).RoundTrip(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.Clone(req.Context()))
		want := rec.Result()
		wantBody, _ := io.ReadAll(want.Body)

		if resp.StatusCode != want.StatusCode || resp.Status != want.Status {
			t.Errorf("%s: status %d %q, recorder %d %q", name, resp.StatusCode, resp.Status, want.StatusCode, want.Status)
		}
		if !reflect.DeepEqual(resp.Header, want.Header) {
			t.Errorf("%s: header %v, recorder %v", name, resp.Header, want.Header)
		}
		if string(got) != string(wantBody) {
			t.Errorf("%s: body %q, recorder %q", name, got, wantBody)
		}
		if resp.ContentLength != int64(len(got)) {
			t.Errorf("%s: ContentLength %d for a %d-byte body", name, resp.ContentLength, len(got))
		}
		if resp.Request != req {
			t.Errorf("%s: response does not point back at its request", name)
		}
	}
}
