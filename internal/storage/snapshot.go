package storage

import (
	"fmt"
	"io"
	"sort"

	"encoding/gob"
)

// Snapshot support: a DB can be serialized to a stream and restored
// later, preserving schemas, rows, and secondary index definitions
// (indexes are rebuilt on load, not stored). Work-unit counters are not
// part of a snapshot. The format is encoding/gob over explicit DTOs, so
// internal representation changes never break old snapshots silently —
// the DTO types below are the compatibility surface.

// snapshotVersion guards against reading snapshots from incompatible
// layouts.
const snapshotVersion = 1

type valueDTO struct {
	T Type
	I int64
	F float64
	S string
}

type indexDTO struct {
	Name string
	Kind IndexKind
	Cols []string
}

type tableDTO struct {
	Name    string
	Columns []Column
	KeyCols []string
	Rows    [][]valueDTO
	Indexes []indexDTO
}

type dbDTO struct {
	Version int
	Tables  []tableDTO
}

func toDTO(v Value) valueDTO { return valueDTO{T: v.T, I: v.i, F: v.f, S: v.s} }

func fromDTO(d valueDTO) Value { return Value{T: d.T, i: d.I, f: d.F, s: d.S} }

// WriteSnapshot serializes the database to w.
func (db *DB) WriteSnapshot(w io.Writer) error {
	dto := dbDTO{Version: snapshotVersion}
	for _, name := range db.TableNames() {
		t := db.tables[name]
		schema := t.Schema()
		td := tableDTO{Name: name, Columns: schema.Columns}
		for _, k := range schema.Key {
			td.KeyCols = append(td.KeyCols, schema.Columns[k].Name)
		}
		t.Scan(func(r Row) bool {
			row := make([]valueDTO, len(r))
			for i, v := range r {
				row[i] = toDTO(v)
			}
			td.Rows = append(td.Rows, row)
			return true
		})
		for _, ix := range t.Indexes() {
			cols := make([]string, len(ix.Cols))
			for i, c := range ix.Cols {
				cols[i] = schema.Columns[c].Name
			}
			td.Indexes = append(td.Indexes, indexDTO{Name: ix.Name, Kind: ix.Kind, Cols: cols})
		}
		dto.Tables = append(dto.Tables, td)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// ReadSnapshot restores a database from a snapshot stream.
func ReadSnapshot(r io.Reader) (*DB, error) {
	var dto dbDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	if dto.Version != snapshotVersion {
		return nil, fmt.Errorf("storage: snapshot version %d, want %d", dto.Version, snapshotVersion)
	}
	db := NewDB()
	for _, td := range dto.Tables {
		schema, err := NewSchema(td.Name, td.Columns, td.KeyCols...)
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot table %s: %w", td.Name, err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		for _, row := range td.Rows {
			vals := make(Row, len(row))
			for i, d := range row {
				vals[i] = fromDTO(d)
			}
			if err := tbl.Insert(vals); err != nil {
				return nil, fmt.Errorf("storage: snapshot row in %s: %w", td.Name, err)
			}
		}
		for _, ix := range td.Indexes {
			if err := tbl.CreateIndex(ix.Name, ix.Kind, ix.Cols...); err != nil {
				return nil, fmt.Errorf("storage: snapshot index %s: %w", ix.Name, err)
			}
		}
	}
	// Restoring charged insert/index counters; a fresh DB starts clean.
	db.stats = Stats{}
	return db, nil
}

// Snapshot deltas: the differential counterpart of WriteSnapshot /
// ReadSnapshot. A delta captures only the rows behind a caller-provided
// dirty-key set, so a database that changes a handful of rows between
// checkpoints serializes a handful of rows instead of every table. The
// DTOs below are the delta format's compatibility surface, mirroring the
// full-snapshot DTOs.

// snapshotDeltaVersion guards against reading snapshot deltas from
// incompatible layouts.
const snapshotDeltaVersion = 1

// KeySet is one table's dirty keys: encoded primary key -> the key
// values. Over-marking is harmless — a dirty key whose row is unchanged
// round-trips as an identical upsert.
type KeySet map[string][]Value

type tableDeltaDTO struct {
	Name string
	// Upserts carries the full current row of every dirty key present in
	// the table; Deletes carries the key values of dirty keys absent from
	// it.
	Upserts [][]valueDTO
	Deletes [][]valueDTO
}

type dbDeltaDTO struct {
	Version int
	Tables  []tableDeltaDTO
}

// WriteSnapshotDelta serializes the state of the dirty keys to w: a
// dirty key present in its table becomes an upsert carrying the full
// current row, an absent one becomes a delete. Applying the delta to any
// database that agrees with this one on every non-dirty key (via
// ApplySnapshotDelta) reproduces this database's logical content.
// Tables and keys are visited in sorted order, so identical (db, dirty)
// pairs produce identical bytes. Index definitions are not part of a
// delta — they belong to the base snapshot.
func (db *DB) WriteSnapshotDelta(w io.Writer, dirty map[string]KeySet) error {
	dto := dbDeltaDTO{Version: snapshotDeltaVersion}
	names := make([]string, 0, len(dirty))
	for name, ks := range dirty {
		if len(ks) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t, ok := db.tables[name]
		if !ok {
			return fmt.Errorf("storage: snapshot delta for unknown table %q", name)
		}
		ks := dirty[name]
		keys := make([]string, 0, len(ks))
		for k := range ks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		td := tableDeltaDTO{Name: name}
		for _, k := range keys {
			// Resolve through the primary-key index directly: a checkpoint
			// must not charge probe work to the shared maintenance counters.
			if slot, found := t.pk[k]; found {
				row := t.rows[slot]
				enc := make([]valueDTO, len(row))
				for i, v := range row {
					enc[i] = toDTO(v)
				}
				td.Upserts = append(td.Upserts, enc)
			} else {
				keyVals := ks[k]
				enc := make([]valueDTO, len(keyVals))
				for i, v := range keyVals {
					enc[i] = toDTO(v)
				}
				td.Deletes = append(td.Deletes, enc)
			}
		}
		dto.Tables = append(dto.Tables, td)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// ApplySnapshotDelta applies a delta stream to db in place: upserts
// update the existing row or insert a new one, deletes remove the row
// when present (deleting an already-absent key is a no-op — the writer
// may have over-marked a key that never reached this base). Every table
// named by the delta must exist in db.
func ApplySnapshotDelta(db *DB, r io.Reader) error {
	var dto dbDeltaDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return fmt.Errorf("storage: decoding snapshot delta: %w", err)
	}
	if dto.Version != snapshotDeltaVersion {
		return fmt.Errorf("storage: snapshot delta version %d, want %d", dto.Version, snapshotDeltaVersion)
	}
	for _, td := range dto.Tables {
		tbl, err := db.Table(td.Name)
		if err != nil {
			return fmt.Errorf("storage: snapshot delta: %w", err)
		}
		schema := tbl.Schema()
		for _, enc := range td.Upserts {
			row := make(Row, len(enc))
			for i, d := range enc {
				row[i] = fromDTO(d)
			}
			// Validate before projecting the key: a damaged delta may carry
			// a row too short to hold it.
			if err := schema.CheckRow(row); err != nil {
				return fmt.Errorf("storage: snapshot delta upsert in %s: %w", td.Name, err)
			}
			keyVals := row.Project(schema.Key)
			if _, found := tbl.Get(keyVals...); found {
				if _, err := tbl.Update(keyVals, row); err != nil {
					return fmt.Errorf("storage: snapshot delta upsert in %s: %w", td.Name, err)
				}
			} else if err := tbl.Insert(row); err != nil {
				return fmt.Errorf("storage: snapshot delta upsert in %s: %w", td.Name, err)
			}
		}
		for _, enc := range td.Deletes {
			keyVals := make([]Value, len(enc))
			for i, d := range enc {
				keyVals[i] = fromDTO(d)
			}
			if _, found := tbl.Get(keyVals...); found {
				if _, err := tbl.Delete(keyVals...); err != nil {
					return fmt.Errorf("storage: snapshot delta delete in %s: %w", td.Name, err)
				}
			}
		}
	}
	return nil
}
