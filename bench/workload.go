package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"skyserver/internal/core"
	"skyserver/internal/pyramid"
	"skyserver/internal/queries"
	"skyserver/internal/schema"
	"skyserver/internal/storage"
	"skyserver/internal/traffic"
	"skyserver/internal/val"
)

// request is one generated HTTP GET plus what the traced run needs to replay
// it through the layers below the web handler.
type request struct {
	url string // path and query, relative to the server base

	// sql and format are set for requests to the SQL endpoints; the page
	// routes (places, explorer, navigator, schema) leave them empty.
	sql, format string
	// objID is the object a point lookup names (0 = none); cone is the
	// (ra, dec, radius arcmin) of a spatial search (nil = none).
	objID int64
	cone  *[3]float64
	// header is the CSV header line a response without a stored reference
	// must start with ("" = unchecked); sentinel marks the churn workload's
	// count of synthetic rows, whose expected value follows the writer.
	// anyBody marks the image-tile route: where fields overlap it serves
	// whichever the scan returns first, so only status and a non-empty body
	// are checked. unordered marks a page whose handler runs a SELECT
	// without ORDER BY, so its rows may come in any order.
	header    string
	sentinel  bool
	anyBody   bool
	unordered bool
}

// ordered reports whether SQL semantics fix the order of the reply's rows.
func (r *request) ordered() bool {
	if r.sql != "" {
		return orderBy.MatchString(r.sql)
	}
	return !r.unordered
}

// stream yields one client's request sequence. Equal (workload, seed,
// client, clients) give equal sequences; nothing else feeds it.
type stream func() *request

// workload describes one traffic mix.
type workload struct {
	why string
	// cycle is how many consecutive requests of one client form a unit
	// that is measured whole or not at all: 1 everywhere except sql.scan,
	// whose pass over the fixed query list must contribute every query
	// equally or its percentiles flip between queries.
	cycle int
	// pool is the workload's finite set of distinct requests, fetched once
	// serially for reference bodies (nil when the sequence never repeats).
	pool []*request
	// streamFor builds client c's sequence out of n clients.
	streamFor func(c, n int) stream
}

var workloadWhy = map[string]string{
	"web.mix":    "the paper's section-7 page mix with Zipf-repeated ids: web handlers, serializers, result cache and admission gate; the gallery page is the only scan",
	"sql.lookup": "interactive SQL and Explorer drill-downs that never repeat: plan-cache hits, result-cache misses and fills; heap scans bypassed",
	"sql.scan":   "the batch-class Q1-Q20 queries cycled over /api/v1/query: heap scans, aggregation, sort and joins; results never cached",
	"sql.churn":  "a repeating cacheable PhotoObj pool while a loader inserts and undoes rows: plan recompiles and result-cache invalidation",
}

var workloadNames = []string{"web.mix", "sql.lookup", "sql.scan", "sql.churn"}

// catalog is what the generators know about the loaded survey: which
// objects, spectra and sky positions exist. It is read once, in-process,
// before any request is made.
type catalog struct {
	objIDs                       []int64      // ascending
	specObj                      []int64      // objIDs that have a spectrum, ascending
	fields                       [][2]float64 // field centres, by fieldID
	raMin, raMax, decMin, decMax float64
}

func readCatalog(s *core.SkyServer) (*catalog, error) {
	c := &catalog{raMin: 360, decMin: 90, decMax: -90}
	t := s.DB().PhotoObj
	id, ra, dec := t.ColIndex("objID"), t.ColIndex("ra"), t.ColIndex("dec")
	need := make([]bool, len(t.Cols))
	need[id], need[ra], need[dec] = true, true, true
	err := t.ScanRows(1, need, func(_ storage.RID, row val.Row) error {
		c.objIDs = append(c.objIDs, row[id].I)
		c.raMin, c.raMax = min(c.raMin, row[ra].F), max(c.raMax, row[ra].F)
		c.decMin, c.decMax = min(c.decMin, row[dec].F), max(c.decMax, row[dec].F)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("read PhotoObj: %w", err)
	}
	st := s.DB().SpecObj
	sid := st.ColIndex("objID")
	need = make([]bool, len(st.Cols))
	need[sid] = true
	err = st.ScanRows(1, need, func(_ storage.RID, row val.Row) error {
		if row[sid].I > 0 {
			c.specObj = append(c.specObj, row[sid].I)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("read SpecObj: %w", err)
	}
	ft := s.DB().Field
	fid := ft.ColIndex("fieldID")
	b := [4]int{ft.ColIndex("raMin"), ft.ColIndex("raMax"), ft.ColIndex("decMin"), ft.ColIndex("decMax")}
	type field struct {
		id     int64
		centre [2]float64
	}
	var fields []field
	err = ft.ScanRows(1, nil, func(_ storage.RID, row val.Row) error {
		fields = append(fields, field{row[fid].I, [2]float64{(row[b[0]].F + row[b[1]].F) / 2, (row[b[2]].F + row[b[3]].F) / 2}})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("read Field: %w", err)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].id < fields[j].id })
	for _, f := range fields {
		c.fields = append(c.fields, f.centre)
	}
	sort.Slice(c.objIDs, func(i, j int) bool { return c.objIDs[i] < c.objIDs[j] })
	sort.Slice(c.specObj, func(i, j int) bool { return c.specObj[i] < c.specObj[j] })
	if len(c.objIDs) == 0 || len(c.specObj) == 0 || len(c.fields) == 0 {
		return nil, fmt.Errorf("empty survey: %d objects, %d spectra, %d fields", len(c.objIDs), len(c.specObj), len(c.fields))
	}
	return c, nil
}

// point draws a position inside the footprint, away from its edge.
func (c *catalog) point(rng *rand.Rand) (ra, dec float64) {
	const margin = 0.1
	ra = c.raMin + margin + rng.Float64()*(c.raMax-c.raMin-2*margin)
	dec = c.decMin + margin + rng.Float64()*(c.decMax-c.decMin-2*margin)
	return ra, dec
}

func sqlRequest(path, format, sql string) *request {
	return &request{
		url: path + "?format=" + format + "&cmd=" + url.QueryEscape(sql),
		sql: sql, format: format,
	}
}

const (
	queryPath  = "/api/v1/query"
	searchPath = "/en/tools/search/sql.asp"
)

func explore(id int64) *request {
	return &request{url: fmt.Sprintf("/en/tools/explore/obj.asp?id=%d", id), objID: id}
}

// zipfPick draws pool indexes with popularity ∝ 1/rank^1.1.
func zipfPick(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// newWorkload builds the named workload over the loaded survey.
func newWorkload(name string, seed int64, in *instance, cat *catalog) (*workload, error) {
	w := &workload{why: workloadWhy[name], cycle: 1}
	switch name {
	case "web.mix":
		return webMix(w, seed, cat)
	case "sql.lookup":
		w.streamFor = func(c, n int) stream { return lookupStream(seed, c, n, cat) }
		return w, nil
	case "sql.scan":
		return sqlScan(w, seed, in)
	case "sql.churn":
		churnPool(w, seed, cat)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// poolSize is how many distinct ids, rectangles, tiles and SQL constants
// each web.mix route draws from, so popular pages repeat.
const poolSize = 200

// webMix replays internal/traffic's §7 access log against the routes this
// server implements. Page paths keep the generator's popularity weights;
// each embedded-asset hit becomes an image-tile fetch; project pages the
// server does not have, and the log's hacker probes, are dropped.
//
// The log is the generator's own default (the Figure 5 series), the same for
// every seed: the gallery page is 9% of the requests and 85% of the time, so
// a log that varied with the seed would move p95 and throughput by the
// sampling noise of that share and hide the server. The seed decides which
// objects, rectangles, tiles and SQL constants exist and which are popular.
func webMix(w *workload, seed int64, cat *catalog) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, poolSize)
	rects := make([]string, poolSize)
	tiles := make([]string, poolSize)
	for i := range ids {
		ids[i] = cat.objIDs[rng.Intn(len(cat.objIDs))]
		ra, dec := cat.point(rng)
		rects[i] = fmt.Sprintf("/en/tools/navi/objects?format=csv&ra1=%.3f&ra2=%.3f&dec1=%.3f&dec2=%.3f", ra, ra+0.05, dec, dec+0.05)
		// Tiles are requested at field centres: the strips leave gaps, so
		// not every point of the footprint lies in a field.
		centre := cat.fields[rng.Intn(len(cat.fields))]
		ra, dec = centre[0], centre[1]
		tiles[i] = fmt.Sprintf("/en/tools/navi/cutout?ra=%.4f&dec=%.4f&zoom=%d", ra, dec, pyramid.ZoomLevels[rng.Intn(len(pyramid.ZoomLevels))])
	}
	// The SQL page's handful of templates: what the site's own help pages
	// suggest pasting in. All are single interactive-class SELECTs, so the
	// result cache may hold them.
	sqlPage := func(i int) *request {
		switch i % 4 {
		case 0:
			return sqlRequest(searchPath, "html", fmt.Sprintf("select objID, ra, dec, u, g, r, i, z from PhotoObj where objID = %d", ids[i]))
		case 1:
			return sqlRequest(searchPath, "csv", fmt.Sprintf("select specObjID, z, zConf, specClass from SpecObj where objID = %d", cat.specObj[i%len(cat.specObj)]))
		case 2:
			z := 0.02 * float64(i%50)
			return sqlRequest(searchPath, "json", fmt.Sprintf("select specObjID, objID, z, zConf from SpecObj where specClass = 3 and z between %.2f and %.2f order by specObjID", z, z+0.2))
		default:
			return sqlRequest(searchPath, "html", fmt.Sprintf("select top 10 neighborObjID, distance from Neighbors where objID = %d order by distance", ids[i]))
		}
	}

	var log bytes.Buffer
	if _, err := traffic.Generate(traffic.Config{Days: 8}, &log); err != nil {
		return nil, fmt.Errorf("generate traffic: %w", err)
	}
	pick := zipfPick(rng, poolSize)
	fixed := map[string]*request{}
	distinct := map[string]*request{}
	var seq []*request
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		e, err := traffic.ParseLine(line)
		if err != nil {
			return nil, err
		}
		path := "/en" + strings.TrimPrefix(e.Path, "/"+e.Lang)
		var r *request
		switch {
		case !e.IsPage && strings.HasSuffix(path, ".jpg"):
			r = &request{url: tiles[pick()], anyBody: true}
		case !e.IsPage:
			continue
		case path == "/en/tools/places/", path == "/en/", path == "/en/help/docs/browser.asp":
			if fixed[path] == nil {
				fixed[path] = &request{url: path}
			}
			r = fixed[path]
		case path == "/en/tools/navi/":
			r = &request{url: rects[pick()], unordered: true}
		case path == "/en/tools/explore/obj.asp":
			r = explore(ids[pick()])
		case path == searchPath:
			r = sqlPage(pick())
		default:
			continue
		}
		if d := distinct[r.url]; d != nil {
			r = d
		} else {
			distinct[r.url] = r
			w.pool = append(w.pool, r)
		}
		seq = append(seq, r)
	}
	if len(seq) < 1000 {
		return nil, fmt.Errorf("traffic log mapped to only %d requests", len(seq))
	}
	w.streamFor = func(c, n int) stream {
		i := c
		return func() *request {
			r := seq[i%len(seq)]
			i += n
			return r
		}
	}
	return w, nil
}

// lookupStream is sql.lookup: every request carries a constant no other
// request of the run has, so the result cache can only miss and fill. Where a
// template's natural parameter is discrete (an objID), a residual predicate
// takes the unique constant instead.
func lookupStream(seed int64, c, n int, cat *catalog) stream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	// One permutation for all clients; client c walks entries c, c+n, ….
	perm := rand.New(rand.NewSource(seed)).Perm(len(cat.objIDs))
	seq := 0
	walk := 0
	return func() *request {
		// uniq is distinct across all requests of all clients of the run.
		uniq := float64(seq*n+c+1) * 1e-7
		seq++
		id := cat.objIDs[rng.Intn(len(cat.objIDs))]
		spec := cat.specObj[rng.Intn(len(cat.specObj))]
		var r *request
		switch p := rng.Intn(100); {
		case p < 35:
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select objID, ra, dec, u, g, r, i, z from PhotoObj where objID = %d and r < %.7f", id, 90+uniq))
			r.objID, r.header = id, "objID,ra,dec,u,g,r,i,z"
		case p < 50:
			// The Explorer page is keyed by id alone: walk this client's
			// share of a permutation, then its whole-record variant.
			k := walk*n + c
			walk++
			r = explore(cat.objIDs[perm[k%len(perm)]])
			if k >= len(perm) {
				r.url += "&full=1"
			}
		case p < 70:
			ra, dec := cat.point(rng)
			radius := 0.5 + uniq
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select objID, distance from fGetNearbyObjEq(%.6f, %.6f, %.7f) order by distance, objID", ra, dec, radius))
			r.cone, r.header = &[3]float64{ra, dec, radius}, "objID,distance"
		case p < 78: // Q9: quasars in a redshift window
			z := 0.3 + 3*rng.Float64()
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select specObjID, objID, z, zConf from SpecObj where specClass = 3 and z between %.7f and %.4f order by specObjID", z+uniq, z+0.2))
			r.header = "specObjID,objID,z,zConf"
		case p < 86: // Q10A: the spectrum and lines of one object
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select s.specObjID, s.z, l.lineID, l.wave from SpecObj s join SpecLine l on l.specObjID = s.specObjID where s.objID = %d and l.wave > %.7f order by s.specObjID, l.lineID", spec, uniq))
			r.objID, r.header = spec, "specObjID,z,lineID,wave"
		case p < 91: // Q11: low-z galaxies with consistent redshifts
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select s.specObjID, s.z, e.z as elZ from SpecObj s, elRedShift e where s.specObjID = e.specObjID and s.specClass = 2 and s.z < %.7f and abs(s.z - e.z) < 0.002 order by s.specObjID", 0.05+uniq))
			r.header = "specObjID,z,elZ"
		case p < 95: // Q17: photometric-redshift calibration bins
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select floor((p.g - p.r)*5) as colorBin, avg(s.z) as meanZ, count(*) as n from SpecObj s join PhotoObj p on p.objID = s.objID where s.specClass = 2 and s.z < %.7f group by floor((p.g - p.r)*5) order by colorBin", 0.3+uniq))
			r.header = "colorBin,meanZ,n"
		default: // Q19: radio-loud quasars
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select q.specObjID, q.z, f.peakFlux from First f join SpecObj q on q.objID = f.objID where q.specClass = 3 and f.peakFlux > %.7f order by q.specObjID, f.peakFlux", uniq))
			r.header = "specObjID,z,peakFlux"
		}
		return r
	}
}

// skipQ14 keeps Query 14 out of sql.scan: one execution allocates ~380 MB,
// and depending on whether the Go heap grows into fresh pages its latency
// ranges 0.1-1.9 s between identical runs — it would be 85% of a pass and
// turn every sql.scan metric into a measure of the allocator. It still runs
// in the set-up correctness check. See README.md, "Known exclusions".
const skipQ14 = "14"

// sqlScan cycles the batch-class members of the paper's query list. Class is
// the server's own verdict (the X-Query-Class header of a second fetch, once
// the plan cache knows the shape). Every pass of a client holds each query
// once, in an order shuffled afresh per pass: two clients cycling in one
// fixed order fall into lockstep, and which query each heavy query overlaps
// with — hence the whole tail — would then differ from run to run.
func sqlScan(w *workload, seed int64, in *instance) (*workload, error) {
	sess := in.sky.Session()
	for _, q := range queries.All() {
		if q.ID == skipQ14 {
			continue
		}
		sql, err := q.SQL(sess)
		if err != nil {
			return nil, fmt.Errorf("Q%s: %w", q.ID, err)
		}
		r := sqlRequest(queryPath, "csv", sql)
		var class string
		for i := 0; i < 2; i++ {
			resp, err := fetch(nil, in.base, r, nil)
			if err != nil {
				return nil, fmt.Errorf("Q%s: %w", q.ID, err)
			}
			class = resp.class
		}
		if class == "batch" {
			w.pool = append(w.pool, r)
		}
	}
	if len(w.pool) == 0 {
		return nil, fmt.Errorf("no batch-class query among Q1-Q20")
	}
	w.cycle = len(w.pool)
	w.streamFor = func(c, n int) stream {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		var order []int
		return func() *request {
			if len(order) == 0 {
				order = rng.Perm(len(w.pool))
			}
			r := w.pool[order[0]]
			order = order[1:]
			return r
		}
	}
	return w, nil
}

// churnBase is the first synthetic objID the churn writer loads; real ids
// are far below it. The sentinel request counts the rows at or above it.
const churnBase = int64(1) << 60

// churnPool is sql.churn's reader side: ~500 distinct cacheable PhotoObj
// requests replayed with Zipf popularity. Every one reads PhotoObj, so each
// load step and undo invalidates all of their cached results.
func churnPool(w *workload, seed int64, cat *catalog) {
	rng := rand.New(rand.NewSource(seed))
	sentinel := sqlRequest(queryPath, "csv", fmt.Sprintf("select count(*) as n from PhotoObj where objID >= %d", churnBase))
	sentinel.sentinel = true
	w.pool = append(w.pool, sentinel)
	for len(w.pool) < 500 {
		id := cat.objIDs[rng.Intn(len(cat.objIDs))]
		var r *request
		if len(w.pool)%5 == 4 {
			lo := 15 + 6*rng.Float64()
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select objID, r from PhotoObj where type = %d and mode = 1 and r between %.4f and %.4f order by r, objID", schema.TypeStar, lo, lo+0.02))
		} else {
			r = sqlRequest(queryPath, "csv", fmt.Sprintf(
				"select objID, ra, dec, u, g, r, i, z from PhotoObj where objID = %d", id))
			r.objID = id
		}
		w.pool = append(w.pool, r)
	}
	w.streamFor = func(c, n int) stream {
		crng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		pick := zipfPick(crng, len(w.pool))
		return func() *request { return w.pool[pick()] }
	}
}
