package main

import (
	"fmt"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// The traced pass times calls into each layer from outside: these wrappers
// sit between the program's layers (core -> labbase.Store -> storage
// .Manager) and record one span per call. The program itself is not
// instrumented, and the untraced pass uses the unwrapped values.

// tReader traces the read surface shared by stores and their snapshots.
type tReader struct {
	t  *tracer
	in labbase.Reader
}

func (r tReader) MaterialClasses() []string {
	defer r.t.region("labbase.MaterialClasses")()
	return r.in.MaterialClasses()
}

func (r tReader) StepClasses() []string {
	defer r.t.region("labbase.StepClasses")()
	return r.in.StepClasses()
}

func (r tReader) StepClassVersions(name string) ([][]string, error) {
	defer r.t.region("labbase.StepClassVersions")()
	return r.in.StepClassVersions(name)
}

func (r tReader) States() []string {
	defer r.t.region("labbase.States")()
	return r.in.States()
}

func (r tReader) LookupMaterial(name string) (storage.OID, bool) {
	defer r.t.region("labbase.LookupMaterial")()
	return r.in.LookupMaterial(name)
}

func (r tReader) GetMaterial(oid storage.OID) (*labbase.Material, error) {
	defer r.t.region("labbase.GetMaterial")()
	return r.in.GetMaterial(oid)
}

func (r tReader) State(oid storage.OID) (string, error) {
	defer r.t.region("labbase.State")()
	return r.in.State(oid)
}

func (r tReader) MaterialsInState(state string) ([]storage.OID, error) {
	defer r.t.region("labbase.MaterialsInState")()
	return r.in.MaterialsInState(state)
}

func (r tReader) CountInState(state string) (uint64, error) {
	defer r.t.region("labbase.CountInState")()
	return r.in.CountInState(state)
}

func (r tReader) CountMaterials(class string) (uint64, error) {
	defer r.t.region("labbase.CountMaterials")()
	return r.in.CountMaterials(class)
}

func (r tReader) CountSteps(class string) (uint64, error) {
	defer r.t.region("labbase.CountSteps")()
	return r.in.CountSteps(class)
}

// scan runs a callback-driven scan so that the caller's callback (lbq
// resolves the rest of a query inside it) is not charged to labbase: the
// scan's span closes around each callback and resumes after it.
func scan[T any](t *tracer, name string, run func(func(T) error) error, fn func(T) error) error {
	o := t.push(name)
	err := run(func(v T) error {
		t.pop(o)
		err := fn(v)
		o = t.pushCounted(name, false)
		return err
	})
	t.pop(o)
	return err
}

func (r tReader) ScanMaterials(class string, fn func(*labbase.Material) error) error {
	return scan(r.t, "labbase.ScanMaterials", func(f func(*labbase.Material) error) error {
		return r.in.ScanMaterials(class, f)
	}, fn)
}

func (r tReader) ScanAllMaterials(fn func(*labbase.Material) error) error {
	return scan(r.t, "labbase.ScanAllMaterials", r.in.ScanAllMaterials, fn)
}

func (r tReader) SetMembers(oid storage.OID) ([]storage.OID, error) {
	defer r.t.region("labbase.SetMembers")()
	return r.in.SetMembers(oid)
}

func (r tReader) GetStep(oid storage.OID) (*labbase.Step, error) {
	defer r.t.region("labbase.GetStep")()
	return r.in.GetStep(oid)
}

func (r tReader) ScanSteps(class string, fn func(*labbase.Step) error) error {
	return scan(r.t, "labbase.ScanSteps", func(f func(*labbase.Step) error) error {
		return r.in.ScanSteps(class, f)
	}, fn)
}

func (r tReader) History(oid storage.OID) ([]labbase.HistoryEntry, error) {
	defer r.t.region("labbase.History")()
	return r.in.History(oid)
}

func (r tReader) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	defer r.t.region("labbase.StepsInvolving")()
	return r.in.StepsInvolving(oid)
}

func (r tReader) MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	defer r.t.region("labbase.MostRecent")()
	return r.in.MostRecent(oid, attr)
}

func (r tReader) MostRecentScan(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	defer r.t.region("labbase.MostRecentScan")()
	return r.in.MostRecentScan(oid, attr)
}

func (r tReader) MostRecentAsOf(oid storage.OID, attr string, at int64) (labbase.Value, storage.OID, bool, error) {
	defer r.t.region("labbase.MostRecentAsOf")()
	return r.in.MostRecentAsOf(oid, attr, at)
}

func (r tReader) AttrTimeline(oid storage.OID, attr string) ([]labbase.TimelineEntry, error) {
	defer r.t.region("labbase.AttrTimeline")()
	return r.in.AttrTimeline(oid, attr)
}

func (r tReader) Dump() (labbase.DumpStats, error) {
	defer r.t.region("labbase.Dump")()
	return r.in.Dump()
}

// tSnap traces a snapshot handle the store handed out.
type tSnap struct {
	tReader
	snap labbase.Snapshot
}

func (s *tSnap) Close() error {
	defer s.t.region("labbase.SnapClose")()
	return s.snap.Close()
}

// tStore traces a labbase.Store.
type tStore struct {
	tReader
	in labbase.Store
}

func (s *tStore) Begin() error {
	defer s.t.region("labbase.Begin")()
	return s.in.Begin()
}

func (s *tStore) Commit() error {
	defer s.t.region("labbase.Commit")()
	return s.in.Commit()
}

func (s *tStore) InTxn() bool { return s.in.InTxn() }

func (s *tStore) Close() error {
	defer s.t.region("labbase.Close")()
	return s.in.Close()
}

// Snapshot wraps the handle too, so snapshot reads (every wire read and
// every lbq query) are timed on the same path as direct reads.
func (s *tStore) Snapshot() (labbase.Snapshot, error) {
	defer s.t.region("labbase.Snapshot")()
	snap, err := s.in.Snapshot()
	if err != nil {
		return nil, err
	}
	return &tSnap{tReader: tReader{t: s.t, in: snap}, snap: snap}, nil
}

func (s *tStore) StoreStats() (string, storage.Stats) { return s.in.StoreStats() }

func (s *tStore) DefineMaterialClass(name, parent string) (labbase.ClassID, error) {
	defer s.t.region("labbase.DefineMaterialClass")()
	return s.in.DefineMaterialClass(name, parent)
}

func (s *tStore) DefineAttr(name string, kind labbase.Kind) (labbase.AttrID, error) {
	defer s.t.region("labbase.DefineAttr")()
	return s.in.DefineAttr(name, kind)
}

func (s *tStore) DefineStepClass(name string, attrs []labbase.AttrDef) (labbase.StepClassID, labbase.Version, error) {
	defer s.t.region("labbase.DefineStepClass")()
	return s.in.DefineStepClass(name, attrs)
}

func (s *tStore) DefineState(name string) (labbase.StateID, error) {
	defer s.t.region("labbase.DefineState")()
	return s.in.DefineState(name)
}

func (s *tStore) CreateMaterial(class, name, state string, validTime int64) (storage.OID, error) {
	defer s.t.region("labbase.CreateMaterial")()
	return s.in.CreateMaterial(class, name, state, validTime)
}

func (s *tStore) SetState(oid storage.OID, state string) error {
	defer s.t.region("labbase.SetState")()
	return s.in.SetState(oid, state)
}

func (s *tStore) CreateMaterialSet(members []storage.OID) (storage.OID, error) {
	defer s.t.region("labbase.CreateMaterialSet")()
	return s.in.CreateMaterialSet(members)
}

func (s *tStore) RecordStep(spec labbase.StepSpec) (storage.OID, error) {
	defer s.t.region("labbase.RecordStep")()
	return s.in.RecordStep(spec)
}

func (s *tStore) PutSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	defer s.t.region("labbase.PutSteps")()
	return s.in.PutSteps(specs)
}

// The program type-asserts these optional interfaces on the store it is
// handed (core.RunStore: Shards; wire.NewServer: ConcurrentBatches; the
// OpShardInfo handler: ShardInfo). A wrapper must answer those assertions
// exactly as the wrapped store does, so each shape gets its own type.
type (
	shardsIface  = interface{ Shards() int }
	batchesIface = interface{ ConcurrentBatches() bool }
	infoIface    = interface{ ShardInfo() (int, int) }
)

// tShardedStore is the shape of shard.DB.
type tShardedStore struct{ *tStore }

func (s tShardedStore) Shards() int             { return s.in.(shardsIface).Shards() }
func (s tShardedStore) ConcurrentBatches() bool { return s.in.(batchesIface).ConcurrentBatches() }

// tMemberStore is the shape of shard.Member.
type tMemberStore struct{ *tStore }

func (s tMemberStore) ShardInfo() (int, int) { return s.in.(infoIface).ShardInfo() }

// wrapStore returns a traced store with the same optional interfaces as s.
func wrapStore(t *tracer, s labbase.Store) (labbase.Store, error) {
	base := &tStore{tReader: tReader{t: t, in: s}, in: s}
	_, shards := s.(shardsIface)
	_, batches := s.(batchesIface)
	_, info := s.(infoIface)
	switch {
	case !shards && !batches && !info:
		return base, nil
	case shards && batches && !info:
		return tShardedStore{base}, nil
	case !shards && !batches && info:
		return tMemberStore{base}, nil
	}
	return nil, fmt.Errorf("lfbench: no traced wrapper for a %T (Shards %v, ConcurrentBatches %v, ShardInfo %v)", s, shards, batches, info)
}

// tManager traces a storage.Manager. Its spans are leaves: the shard
// fan-out calls two managers from two goroutines at once.
type tManager struct {
	t  *tracer
	in storage.Manager
}

func (m *tManager) Name() string { return m.in.Name() }

func (m *tManager) Allocate(seg storage.SegmentID, data []byte) (storage.OID, error) {
	defer m.t.leaf("storage.Allocate")()
	return m.in.Allocate(seg, data)
}

func (m *tManager) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	defer m.t.leaf("storage.AllocateCluster")()
	return m.in.AllocateCluster(seg, data)
}

func (m *tManager) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	defer m.t.leaf("storage.AllocateNear")()
	return m.in.AllocateNear(near, data)
}

func (m *tManager) Read(oid storage.OID) ([]byte, error) {
	defer m.t.leaf("storage.Read")()
	return m.in.Read(oid)
}

func (m *tManager) Write(oid storage.OID, data []byte) error {
	defer m.t.leaf("storage.Write")()
	return m.in.Write(oid, data)
}

func (m *tManager) Free(oid storage.OID) error {
	defer m.t.leaf("storage.Free")()
	return m.in.Free(oid)
}

func (m *tManager) Root() (storage.OID, error) {
	defer m.t.leaf("storage.Root")()
	return m.in.Root()
}

func (m *tManager) SetRoot(oid storage.OID) error {
	defer m.t.leaf("storage.SetRoot")()
	return m.in.SetRoot(oid)
}

func (m *tManager) Begin() error {
	defer m.t.leaf("storage.Begin")()
	return m.in.Begin()
}

func (m *tManager) Commit() error {
	defer m.t.leaf("storage.Commit")()
	return m.in.Commit()
}

func (m *tManager) Stats() storage.Stats { return m.in.Stats() }

func (m *tManager) Close() error {
	defer m.t.leaf("storage.Close")()
	return m.in.Close()
}

var (
	_ labbase.Store    = (*tStore)(nil)
	_ labbase.Snapshot = (*tSnap)(nil)
	_ storage.Manager  = (*tManager)(nil)
)
