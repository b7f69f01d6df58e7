package db

import (
	"maybms/internal/schema"
	"maybms/internal/storage"
	"maybms/internal/storage/disk"
)

// Options selects and configures the storage engine behind a
// Database.
type Options struct {
	// DataDir, when non-empty, opens the WAL-durable disk engine on
	// that directory; empty selects the in-memory heap engine.
	DataDir string
	// Fsync makes every statement fsync the WAL before returning (see
	// disk.Options.Fsync). Only meaningful with DataDir.
	Fsync bool
	// CheckpointBytes overrides the WAL size that triggers an
	// automatic checkpoint (0 = default).
	CheckpointBytes int64
	// CompactThreshold overrides the per-table segment count that
	// triggers background compaction (0 = default).
	CompactThreshold int
}

// Open creates a Database on the configured storage engine. With a
// DataDir it recovers existing tables and world-set variables from
// the directory's segments and WAL; both engines execute queries
// identically (reads always run against the resident heap mirror), so
// results are byte-identical regardless of engine.
func Open(o Options) (*Database, error) {
	d := New()
	if o.DataDir == "" {
		return d, nil
	}
	st, err := disk.Open(o.DataDir, d.store, disk.Options{
		Fsync:            o.Fsync,
		CheckpointBytes:  o.CheckpointBytes,
		CompactThreshold: o.CompactThreshold,
		Events:           d.events,
		FsyncHist:        d.fsyncHist,
		CheckpointHist:   d.ckptHist,
	})
	if err != nil {
		return nil, err
	}
	d.durable = st
	for _, rt := range st.Tables() {
		d.tables[rt.Name] = storage.NewTableWith(rt.Name, rt.Engine.Schema(), rt.Engine)
	}
	return d, nil
}

// newTable creates a table on the database's engine: a plain heap, or
// a WAL-logged disk engine registered with the durable store.
func (d *Database) newTable(name string, sch *schema.Schema) (*storage.Table, error) {
	if d.durable == nil {
		return storage.NewTable(name, sch), nil
	}
	eng, err := d.durable.CreateTable(name, sch)
	if err != nil {
		return nil, err
	}
	return storage.NewTableWith(name, sch, eng), nil
}

// EngineName reports which storage engine backs the database.
func (d *Database) EngineName() string {
	if d.durable == nil {
		return "memory"
	}
	return "disk"
}

// Checkpoint forces a durable checkpoint: delta segments, world-set
// rewrite, WAL rotation. No-op on the memory engine. Safe at any time,
// even with transactions open: buffered transaction writes never touch
// the WAL until their commit replay, which runs entirely under the
// exclusive lock this takes.
func (d *Database) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.durable == nil {
		return nil
	}
	return d.durable.Checkpoint()
}

// Close checkpoints (when durable) and releases the storage engine.
// The memory engine has nothing to release. Open transactions simply
// evaporate — exactly what in-flight transactions do across a crash.
func (d *Database) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.durable == nil {
		return nil
	}
	st := d.durable
	d.durable = nil
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// StorageStats is a point-in-time view of the storage engine's
// activity, feeding the metrics endpoint.
type StorageStats struct {
	Engine                string
	DataDir               string
	Fsync                 bool
	WALAppends            int64
	WALFsyncs             int64
	WALBytes              int64
	Checkpoints           int64
	LastCheckpointSeconds float64
	SegmentsLive          int64
	Compactions           int64
}

// StorageStats reports the engine's durability counters; zero-valued
// (besides Engine) on the memory engine.
func (d *Database) StorageStats() StorageStats {
	d.mu.RLock()
	durable := d.durable
	d.mu.RUnlock()
	if durable == nil {
		return StorageStats{Engine: "memory"}
	}
	ss := durable.StatsSnapshot()
	return StorageStats{
		Engine:                "disk",
		DataDir:               durable.Dir(),
		Fsync:                 durable.FsyncMode(),
		WALAppends:            ss.WALAppends,
		WALFsyncs:             ss.WALFsyncs,
		WALBytes:              ss.WALBytes,
		Checkpoints:           ss.Checkpoints,
		LastCheckpointSeconds: ss.LastCheckpointSeconds,
		SegmentsLive:          ss.SegmentsLive,
		Compactions:           ss.Compactions,
	}
}
