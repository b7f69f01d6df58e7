// Package maybms is a probabilistic database management system in pure
// Go, reproducing "MayBMS: A Probabilistic Database Management System"
// (Huang, Antova, Koch, Olteanu — SIGMOD 2009).
//
// MayBMS stores uncertain data in U-relations — relations extended
// with condition columns over finite independent random variables —
// and exposes an extension of SQL with uncertainty-aware constructs:
//
//   - repair key ... in ... weight by ...   (key repair → uncertainty)
//   - pick tuples from ... with probability (subset distribution)
//   - conf(), aconf(ε,δ), tconf()           (confidence computation)
//   - possible                              (certain answers filter)
//   - esum(e), ecount()                     (expected aggregates)
//   - argmax(arg, value)                    (maximising arguments)
//
// conf() is the Koch-Olteanu exact d-tree algorithm, which takes
// SPROUT's read-once factorisation steps when the lineage allows;
// aconf(ε,δ) is Karp-Luby Monte Carlo estimation with the
// Dagum-Karp-Luby-Ross optimal stopping rule.
//
// Quickstart:
//
//	db := maybms.Open()
//	db.MustExec(`create table coin (face text, w float)`)
//	db.MustExec(`insert into coin values ('heads', 1), ('tails', 1)`)
//	rows := db.MustQuery(`select face, conf() p from (repair key in coin weight by w) c group by face`)
//	fmt.Println(rows)
package maybms

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"maybms/internal/condition"
	"maybms/internal/db"
	"maybms/internal/lineage"
	"maybms/internal/sql"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// DB is a MayBMS database handle. It is safe for concurrent use;
// statements are serialised internally.
type DB struct {
	inner *db.Database
}

// Open creates a new empty in-memory database. Intra-query
// parallelism defaults to GOMAXPROCS; see Options to pin it.
func Open() *DB { return &DB{inner: db.New()} }

// Options configures OpenOptions.
type Options struct {
	// Parallelism is the degree of intra-query parallelism: scans (and
	// the filter/project/semijoin pipelines above them) over large
	// tables are partitioned into this many row-range shards executed
	// concurrently, and aconf()'s Monte Carlo sampling uses this many
	// workers. Results are byte-identical at every setting — the
	// exchange merge preserves order and the sampling schedule is
	// fixed by the seed — so the knob trades only memory for latency.
	// 0 means GOMAXPROCS; 1 disables parallel execution.
	Parallelism int
	// WorkerPool caps the total number of partition-worker goroutines
	// across every concurrently executing query (exchanges and
	// partitioned aggregation/sort/distinct breakers share one pool).
	// Fragments beyond the cap queue and are run inline by their own
	// query's goroutine when the merge needs them, so a small pool
	// bounds goroutines without ever deadlocking or changing results.
	// 0 means GOMAXPROCS.
	WorkerPool int
	// Seed, when non-zero, fixes the root seed of Monte Carlo
	// estimation exactly as SetSeed would.
	Seed int64
	// DataDir, when non-empty, selects the WAL-durable disk storage
	// engine rooted at that directory (see OpenDurable). Empty keeps
	// the in-memory heap engine.
	DataDir string
	// Fsync makes every statement fsync the write-ahead log before
	// returning; without it the log is fsynced by a background timer
	// (~200ms), so a machine crash can lose the last interval. Only
	// meaningful with DataDir.
	Fsync bool
	// CheckpointBytes overrides the WAL size that triggers an
	// automatic checkpoint (0 = 16 MiB default). Only meaningful with
	// DataDir.
	CheckpointBytes int64
}

// OpenOptions creates a new database with the given options. With a
// DataDir it delegates to OpenDurable and panics on an open error;
// callers that need to handle recovery failures should call
// OpenDurable directly.
func OpenOptions(o Options) *DB {
	if o.DataDir != "" {
		d, err := OpenDurable(o)
		if err != nil {
			panic(fmt.Sprintf("maybms: %v", err))
		}
		return d
	}
	d := Open()
	if o.Parallelism != 0 {
		d.SetParallelism(o.Parallelism)
	}
	if o.WorkerPool != 0 {
		d.SetWorkerPool(o.WorkerPool)
	}
	if o.Seed != 0 {
		d.SetSeed(o.Seed)
	}
	return d
}

// SetParallelism sets the degree of intra-query parallelism (see
// Options.Parallelism). Safe to call at any time; statements already
// executing finish at the old degree.
func (d *DB) SetParallelism(n int) { d.inner.SetParallelism(n) }

// Parallelism reports the configured degree of intra-query
// parallelism.
func (d *DB) Parallelism() int { return d.inner.Parallelism() }

// SetWorkerPool caps the engine's partition-worker goroutines across
// all concurrent queries (see Options.WorkerPool; 0 restores the
// GOMAXPROCS default). Safe to call at any time; statements already
// executing keep the pool they started with.
func (d *DB) SetWorkerPool(n int) { d.inner.SetWorkerPool(n) }

// OpenFile loads a database snapshot previously written by SaveFile.
func OpenFile(path string) (*DB, error) {
	d := Open()
	if err := d.inner.LoadFile(path); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveFile writes a snapshot of the database to path.
func (d *DB) SaveFile(path string) error { return d.inner.SaveFile(path) }

// SetSeed fixes the root seed behind aconf's Monte Carlo sampling,
// making approximate results reproducible. Every aconf() call samples
// from a seed derived from the root and the call's index (counted per
// statement for queries), and the sampler's trial schedule is a pure
// function of that seed: concurrent aconf() queries share no random
// state, and each returns the same bits it would return alone.
func (d *DB) SetSeed(seed int64) {
	d.inner.SetSeed(seed)
}

// PlanCacheStats reports the normalized-plan cache's cumulative hit
// and miss counts and its current entry count (see the engine's query
// planning docs: read-only queries are normalized, fingerprinted, and
// their optimized plans reused until a write invalidates them).
func (d *DB) PlanCacheStats() (hits, misses, entries int64) {
	return d.inner.PlanCacheStats()
}

// Engine exposes the underlying database engine for in-process
// frontends (the network server, the experiment harness). Most callers
// should stay on the DB API.
func (d *DB) Engine() *db.Database { return d.inner }

// Result reports the outcome of a statement.
type Result struct {
	// RowsAffected counts rows changed by DML.
	RowsAffected int
	// Msg describes DDL and transaction outcomes.
	Msg string
}

// Exec runs a script of one or more semicolon-separated statements and
// discards any rows, returning the last statement's summary.
func (d *DB) Exec(src string) (Result, error) {
	r, err := d.inner.Run(src)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: r.RowsAffected, Msg: r.Msg}, nil
}

// MustExec is Exec that panics on error; for examples and tests.
func (d *DB) MustExec(src string) Result {
	r, err := d.Exec(src)
	if err != nil {
		panic(fmt.Sprintf("maybms: %v", err))
	}
	return r
}

// Rows is a materialised query result. For uncertain results, Lineage
// holds one world-set descriptor per row (empty string for
// unconditional tuples) and Certain is false. A query that introduces
// uncertainty itself (repair key or pick tuples in the query rather
// than in a stored table) allocates its variables in a private overlay
// that ends with the statement, so those variables in its Lineage are
// local to the statement and name no variable of WorldStore.
type Rows struct {
	// Columns are the output column names.
	Columns []string
	// Data holds one slice per row; cell values are nil (NULL), int64,
	// float64, string, or bool.
	Data [][]interface{}
	// Certain reports whether the result is a t-certain table.
	Certain bool
	// Lineage holds the per-row condition rendering for uncertain
	// results; empty otherwise. Variables introduced by the query
	// itself are local to its statement (see Rows).
	Lineage []string
}

// Len reports the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// String renders the result as an aligned text table.
func (r *Rows) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	cells := make([][]string, len(r.Data))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for i, row := range r.Data {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = renderCell(v)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for i := range cells {
		for j, cell := range cells[i] {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		if !r.Certain && r.Lineage[i] != "" {
			b.WriteString("   [" + r.Lineage[i] + "]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderCell(v interface{}) string {
	if v == nil {
		return "NULL"
	}
	switch v := v.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// Query runs a single query statement and materialises its result.
func (d *DB) Query(src string) (*Rows, error) {
	r, err := d.inner.Run(src)
	if err != nil {
		return nil, err
	}
	if r.Rel == nil {
		return nil, fmt.Errorf("maybms: statement returned no rows (use Exec)")
	}
	return fromRel(r.Rel), nil
}

// MustQuery is Query that panics on error; for examples and tests.
func (d *DB) MustQuery(src string) *Rows {
	r, err := d.Query(src)
	if err != nil {
		panic(fmt.Sprintf("maybms: %v", err))
	}
	return r
}

func fromRel(rel *urel.Rel) *Rows {
	out := &Rows{Certain: rel.IsCertain()}
	for _, c := range rel.Sch.Cols {
		out.Columns = append(out.Columns, c.Name)
	}
	for _, t := range rel.Tuples {
		row := make([]interface{}, len(t.Data))
		for i, v := range t.Data {
			row[i] = toIface(v)
		}
		out.Data = append(out.Data, row)
	}
	if !out.Certain {
		out.Lineage = make([]string, len(rel.Tuples))
		for i, t := range rel.Tuples {
			if len(t.Cond) > 0 {
				out.Lineage[i] = t.Cond.String()
			}
		}
	}
	return out
}

// RowsFromRel materialises a raw U-relation result as Rows. Intended
// for in-process frontends (the network server, the shell); most
// callers want Query.
func RowsFromRel(rel *urel.Rel) *Rows { return fromRel(rel) }

// RowsCursor streams a query result batch by batch without ever
// materialising it: the pipeline behind it pulls tuples from storage
// on demand, so the first rows arrive before the scan completes and a
// closed cursor stops all remaining work. A cursor over a read-only
// query streams from a point-in-time snapshot of the database and
// holds no lock: writers proceed while it is open, any statement may
// run on the same goroutine mid-iteration, and the cursor keeps
// observing the state as of QueryRows. The cost is memory — the
// snapshot keeps the frozen rows reachable until the cursor is closed
// (Next closes automatically at io.EOF or on error; defer Close on
// every other path).
type RowsCursor struct {
	// Columns are the output column names.
	Columns []string
	// Certain reports whether the result is statically known
	// t-certain; uncertain cursors carry per-row lineage in each batch.
	Certain bool
	cur     *db.Cursor
}

// QueryRows runs a single query statement and returns a streaming
// cursor over its result. The query streams from a snapshot captured
// at this call, including one with repair key or pick tuples, whose
// world-set variables live in a private overlay as long as the cursor.
// Inside a transaction the query runs to completion first and the
// cursor serves the materialised result.
func (d *DB) QueryRows(src string) (*RowsCursor, error) {
	cur, err := d.inner.OpenQuery(src)
	if err != nil {
		return nil, err
	}
	return newRowsCursor(cur), nil
}

// RowsCursorFromRel wraps a materialised U-relation in a cursor.
// Intended for in-process frontends (the network server's streaming
// endpoint); most callers want QueryRows.
func RowsCursorFromRel(rel *urel.Rel) *RowsCursor {
	return newRowsCursor(db.NewRelCursor(rel))
}

// NewRowsCursor wraps an engine cursor (db.Database.OpenQueryStmt).
// Intended for in-process frontends that parse statements themselves;
// most callers want QueryRows.
func NewRowsCursor(cur *db.Cursor) *RowsCursor { return newRowsCursor(cur) }

func newRowsCursor(cur *db.Cursor) *RowsCursor {
	c := &RowsCursor{Certain: cur.Certain(), cur: cur}
	for _, col := range cur.Sch().Cols {
		c.Columns = append(c.Columns, col.Name)
	}
	return c
}

// Next returns the next batch of rows as a Rows page (Columns and
// Certain repeated from the cursor), or (nil, io.EOF) when the result
// is exhausted. The page is owned by the caller.
func (c *RowsCursor) Next() (*Rows, error) {
	b, err := c.cur.Next()
	if err != nil {
		return nil, err
	}
	page := &Rows{Columns: c.Columns, Certain: c.Certain}
	for _, t := range b.Tuples {
		row := make([]interface{}, len(t.Data))
		for i, v := range t.Data {
			row[i] = toIface(v)
		}
		page.Data = append(page.Data, row)
	}
	if !c.Certain {
		page.Lineage = make([]string, len(b.Tuples))
		for i, t := range b.Tuples {
			if len(t.Cond) > 0 {
				page.Lineage[i] = t.Cond.String()
			}
		}
	}
	return page, nil
}

// Close releases the cursor (and the snapshot it pins); idempotent.
func (c *RowsCursor) Close() error { return c.cur.Close() }

func toIface(v types.Value) interface{} {
	switch v.Kind() {
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindText:
		return v.Text()
	case types.KindBool:
		return v.Bool()
	default:
		return nil
	}
}

// Float interprets the result as a single numeric cell. Both the
// embedded and network QueryFloat delegate here, so the two fronts
// cannot drift.
func (r *Rows) Float() (float64, error) {
	if r.Len() != 1 || len(r.Columns) != 1 {
		return 0, fmt.Errorf("maybms: expected a single cell, got %dx%d", r.Len(), len(r.Columns))
	}
	switch v := r.Data[0][0].(type) {
	case int64:
		return float64(v), nil
	case float64:
		return v, nil
	default:
		return 0, fmt.Errorf("maybms: expected a numeric cell, got %T", v)
	}
}

// QueryFloat runs a query expected to return a single numeric cell.
func (d *DB) QueryFloat(src string) (float64, error) {
	rows, err := d.Query(src)
	if err != nil {
		return 0, err
	}
	return rows.Float()
}

// Tables lists the stored tables.
func (d *DB) Tables() []string { return d.inner.TableNames() }

// ImportCSV bulk-loads CSV data (with a header row naming the columns)
// into an existing table. Cells are rendered as literals of the target
// column's type, so a numeric-looking string loads into a TEXT column
// as text; empty cells load as NULL (CSV cannot distinguish "" from
// absent).
func (d *DB) ImportCSV(table string, r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("maybms: csv header: %v", err)
	}
	sch, err := d.inner.SchemaOf(table)
	if err != nil {
		return 0, fmt.Errorf("maybms: csv import: %v", err)
	}
	kinds := make([]types.Kind, len(header))
	for i, col := range header {
		idx, err := sch.Resolve("", strings.TrimSpace(col))
		if err != nil {
			return 0, fmt.Errorf("maybms: csv import: %v", err)
		}
		kinds[i] = sch.Cols[idx].Kind
	}
	count := 0
	var stmt strings.Builder
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return count, fmt.Errorf("maybms: csv row %d: %v", count+1, err)
		}
		stmt.Reset()
		stmt.WriteString("insert into ")
		stmt.WriteString(table)
		stmt.WriteString(" (")
		stmt.WriteString(strings.Join(header, ", "))
		stmt.WriteString(") values (")
		for i, cell := range rec {
			if i > 0 {
				stmt.WriteString(", ")
			}
			stmt.WriteString(csvLiteral(cell, kinds[i]))
		}
		stmt.WriteString(")")
		if _, err := d.Exec(stmt.String()); err != nil {
			return count, fmt.Errorf("maybms: csv row %d: %v", count+1, err)
		}
		count++
	}
	return count, nil
}

// csvLiteral renders a CSV cell as a SQL literal of the target column
// kind, falling back to a quoted string when the cell does not parse
// as that kind (the insert then reports the type error).
func csvLiteral(cell string, kind types.Kind) string {
	trimmed := strings.TrimSpace(cell)
	if trimmed == "" {
		return "NULL"
	}
	switch kind {
	case types.KindInt:
		if _, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
			return trimmed
		}
	case types.KindFloat:
		// ParseFloat accepts "NaN"/"Inf", which are not SQL literals;
		// those fall through to the quoted fallback and surface as a
		// type error rather than a parser error.
		if f, err := strconv.ParseFloat(trimmed, 64); err == nil &&
			!math.IsNaN(f) && !math.IsInf(f, 0) {
			return trimmed
		}
	case types.KindBool:
		switch strings.ToLower(trimmed) {
		case "true", "false":
			return strings.ToLower(trimmed)
		}
	}
	return "'" + strings.ReplaceAll(trimmed, "'", "''") + "'"
}

// ExportCSV writes a query result as CSV with a header row.
func (d *DB) ExportCSV(w io.Writer, query string) error {
	rows, err := d.Query(query)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(rows.Columns); err != nil {
		return err
	}
	rec := make([]string, len(rows.Columns))
	for _, row := range rows.Data {
		for i, v := range row {
			if v == nil {
				rec[i] = ""
			} else {
				rec[i] = renderCell(v)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MustQueryRel runs a query and returns the raw U-relation result,
// exposing per-tuple conditions. Intended for the experiment harness
// and advanced inspection; most callers want Query. Conditions over
// variables of stored tables can be evaluated against WorldStore;
// variables a repair key or pick tuples in the query itself allocated
// are local to the statement, and WorldStore does not hold them.
func (d *DB) MustQueryRel(src string) *urel.Rel {
	r, err := d.inner.Run(src)
	if err != nil || r.Rel == nil {
		panic(fmt.Sprintf("maybms: %v", err))
	}
	return r.Rel
}

// WorldStore exposes the database's world-set store (the registry of
// random variables), for the experiment harness and for computing
// marginals of raw conditions. It holds the variables of stored
// tables only: a query's own repair key or pick tuples allocates into
// a private overlay that ends with the statement.
func (d *DB) WorldStore() *ws.Store { return d.inner.Store() }

// RunScript executes a script of statements and returns the last
// statement's rows (nil when it produced none, e.g. DDL) along with
// its summary. This is what interactive frontends want: one call that
// handles both queries and commands.
func (d *DB) RunScript(src string) (*Rows, Result, error) {
	r, err := d.inner.Run(src)
	if err != nil {
		return nil, Result{}, err
	}
	var rows *Rows
	if r.Rel != nil {
		rows = fromRel(r.Rel)
	}
	return rows, Result{RowsAffected: r.RowsAffected, Msg: r.Msg}, nil
}

// ErrStatementLineage is returned by ConditionOn and Posterior.Prob
// when their query introduces uncertainty itself (repair key or pick
// tuples): its variables are local to the statement, so its lineage
// cannot be conditioned on or against. Such an ad-hoc draw is
// independent of every stored table anyway; store it with CREATE TABLE
// ... AS first, or ask for its probability with conf().
var ErrStatementLineage = errors.New("maybms: the query's own repair key or pick tuples has lineage local to the statement")

// Posterior is a view of the database conditioned on evidence — the
// event that some query returned at least one answer (Koch & Olteanu,
// "Conditioning Probabilistic Databases", VLDB 2008). Posterior
// probabilities are exact, computed as P(A ∧ B)/P(B) by the d-tree
// solver. A Posterior is safe for concurrent use.
type Posterior struct {
	db   *DB
	cond *condition.Conditioned
}

// event runs query and returns the event that its answer is non-empty:
// the disjunction of its rows' conditions. A query that allocates
// world-set variables fails with ErrStatementLineage.
func (d *DB) event(query string) (lineage.DNF, error) {
	stmts, err := sql.ParseAll(query)
	if err != nil {
		return nil, err
	}
	for _, s := range stmts {
		if sql.Allocates(s) {
			return nil, ErrStatementLineage
		}
	}
	r, err := d.inner.Run(query)
	if err != nil {
		return nil, err
	}
	if r.Rel == nil {
		return nil, fmt.Errorf("maybms: expected a query")
	}
	event := make(lineage.DNF, 0, r.Rel.Len())
	for _, t := range r.Rel.Tuples {
		event = append(event, t.Cond)
	}
	return event, nil
}

// ConditionOn conditions the database on the evidence that the given
// query has a non-empty answer. It fails when the evidence has
// probability zero, and with ErrStatementLineage when the query
// introduces uncertainty itself.
func (d *DB) ConditionOn(evidenceQuery string) (*Posterior, error) {
	event, err := d.event(evidenceQuery)
	if err != nil {
		return nil, err
	}
	c, err := condition.New(d.inner.Store(), event)
	if err != nil {
		return nil, err
	}
	return &Posterior{db: d, cond: c}, nil
}

// EvidenceProb returns the prior probability of the evidence event.
func (p *Posterior) EvidenceProb() float64 { return p.cond.EvidenceProb() }

// Prob returns the posterior probability that the given query has a
// non-empty answer, given the evidence. Like ConditionOn it fails with
// ErrStatementLineage when the query introduces uncertainty itself.
func (p *Posterior) Prob(query string) (float64, error) {
	event, err := p.db.event(query)
	if err != nil {
		return 0, err
	}
	return p.cond.Prob(event), nil
}
