package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// response is what a client keeps of one reply.
type response struct {
	status int
	class  string // X-Query-Class
	etag   bool   // the reply carried a validator: its result is cacheable
	body   []byte // valid until the buffer passed to fetch is reused
}

// fetch performs one GET and reads the body to its last byte. buf, when
// non-nil, is reused for the body; client nil means http.DefaultClient.
func fetch(client *http.Client, base string, r *request, buf *bytes.Buffer) (response, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(base + r.url)
	if err != nil {
		return response{}, err
	}
	return readResponse(resp, buf)
}

// post sends a SQL request's statement as a form POST instead — same
// handler, same serializer, but the server neither probes nor fills the
// result cache for a POST.
func post(base string, r *request, buf *bytes.Buffer) (response, error) {
	path, _, _ := strings.Cut(r.url, "?")
	resp, err := http.PostForm(base+path+"?format="+r.format, url.Values{"cmd": {r.sql}})
	if err != nil {
		return response{}, err
	}
	return readResponse(resp, buf)
}

func readResponse(resp *http.Response, buf *bytes.Buffer) (response, error) {
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, err
	}
	return response{
		status: resp.StatusCode,
		class:  resp.Header.Get("X-Query-Class"),
		etag:   resp.Header.Get("ETag") != "",
		body:   buf.Bytes(),
	}, nil
}

// elapsed matches the execution time the json and html serializers embed —
// the one part of a body that legitimately differs between two executions.
var elapsed = regexp.MustCompile(`"elapsedMs":[0-9.e+-]+|[0-9.]+ ms elapsed`)

// digest summarizes a body three ways, strongest first: a hash of the exact
// bytes, a hash of its lines as a multiset, and its line count.
type digest struct {
	exact, lines uint64
	n            int
}

func digestOf(r *request, body []byte) digest {
	if r.format == "json" || r.format == "html" {
		body = elapsed.ReplaceAll(body, nil)
	}
	var d digest
	h := fnv.New64a()
	h.Write(body)
	d.exact = h.Sum64()
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		h.Reset()
		h.Write(line)
		d.lines += h.Sum64()
		d.n++
	}
	return d
}

// reference is the expected reply to one request, fetched serially before
// timing, with how much of it a correct server must reproduce. SQL promises
// row order only under ORDER BY (a parallel scan delivers rows as its workers
// finish), and a result cut at the public row limit is an arbitrary subset,
// so: exact bytes are required of pages and ordered queries, the multiset of
// lines of complete unordered results, the line count of truncated ones.
// Each level is also dropped when two serial fetches already disagree on it
// (the image-tile route picks one of a field's frames in scan order).
type reference struct {
	d                         digest
	exactOK, linesOK, countOK bool
}

var orderBy = regexp.MustCompile(`(?i)\border\s+by\b`)

// publicMaxRows is web.PublicMaxRows: the row count at which the public
// server truncates a result.
const publicMaxRows = 1000

// references fetches every request twice and stores what must reproduce.
// With viaPost, SQL requests go by POST so the result cache never sees them.
func references(in *instance, pool []*request, viaPost bool) (map[string]reference, error) {
	refs := make(map[string]reference, len(pool))
	var buf bytes.Buffer
	for _, r := range pool {
		var ds [2]digest
		for pass := range ds {
			var resp response
			var err error
			if viaPost && r.sql != "" {
				resp, err = post(in.base, r, &buf)
			} else {
				resp, err = fetch(nil, in.base, r, &buf)
			}
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", r.url, err)
			}
			if resp.status != http.StatusOK {
				return nil, fmt.Errorf("reference %s: status %d: %.200s", r.url, resp.status, resp.body)
			}
			ds[pass] = digestOf(r, resp.body)
		}
		complete := ds[0].n <= publicMaxRows
		refs[r.url] = reference{
			d:       ds[0],
			exactOK: ds[0].exact == ds[1].exact && complete && r.ordered(),
			linesOK: ds[0].lines == ds[1].lines && complete,
			countOK: ds[0].n == ds[1].n,
		}
	}
	return refs, nil
}

// verify checks one timed reply: against its reference when there is one,
// otherwise for status and shape.
func verify(r *request, resp response, refs map[string]reference, sentinelRows int) error {
	if resp.status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", resp.status, resp.body)
	}
	if r.sentinel {
		want := "n\n" + strconv.Itoa(sentinelRows) + "\n"
		if string(resp.body) != want {
			return fmt.Errorf("synthetic row count: got %q, want %q", resp.body, want)
		}
		return nil
	}
	if r.anyBody {
		if len(resp.body) == 0 {
			return fmt.Errorf("empty body")
		}
		return nil
	}
	ref, ok := refs[r.url]
	if !ok {
		if r.header != "" && !(bytes.HasPrefix(resp.body, []byte(r.header)) && len(resp.body) > len(r.header) && resp.body[len(r.header)] == '\n') {
			return fmt.Errorf("body does not start with header %q: %.80q", r.header, resp.body)
		}
		return nil
	}
	d := digestOf(r, resp.body)
	switch {
	case ref.countOK && d.n != ref.d.n:
		return fmt.Errorf("%d lines, reference has %d", d.n, ref.d.n)
	case ref.exactOK && d.exact != ref.d.exact:
		return fmt.Errorf("body differs from reference")
	case ref.linesOK && d.lines != ref.d.lines:
		return fmt.Errorf("rows differ from reference")
	}
	return nil
}

// sample is one completed request of the closed loop.
type sample struct {
	start, end time.Duration // since the loop began
	bytes      int
	err        error
}

// loop drives the server closed-loop: each of n clients owns one keep-alive
// connection and sends its next request only when the previous reply has
// been read to the end and checked. It runs until stop is closed and returns
// every client's samples in order.
//
// Around each request a client holds the churn writer out (a no-op without
// one), so DML never overlaps a read; see churn.go.
func loop(in *instance, w *workload, refs map[string]reference, n int, stop <-chan struct{}, writer *churnWriter) [][]sample {
	out := make([][]sample, n)
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			next := w.streamFor(c, n)
			var buf bytes.Buffer
			samples := make([]sample, 0, 1<<16)
			for {
				select {
				case <-stop:
					out[c] = samples
					return
				default:
				}
				r := next()
				rows := writer.hold()
				t0 := time.Since(begin)
				resp, err := fetch(client, in.base, r, &buf)
				t1 := time.Since(begin)
				writer.release()
				if err == nil {
					err = verify(r, resp, refs, rows)
				}
				if err != nil {
					err = fmt.Errorf("%s: %w", r.url, err)
				}
				samples = append(samples, sample{start: t0, end: t1, bytes: len(resp.body), err: err})
			}
		}(c)
	}
	wg.Wait()
	return out
}
