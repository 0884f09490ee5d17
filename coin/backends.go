package coin

// Registration helpers for the heterogeneous backend wrappers: file
// directories, SQL databases reached through database/sql, and paginated
// REST services. Each is a thin adapter from the backend's constructor to
// the shared addSource path, so applications wire disparate sources with
// the same elevation vocabulary AddRelationalSource uses. A nil elevation
// for a relation means it is context-free (ancillary-style data).

import (
	"context"
	"net/http"

	"repro/internal/wrapper/filesrc"
	"repro/internal/wrapper/restsrc"
	"repro/internal/wrapper/sqlsrc"
)

// AddFileSource serves every *.csv and *.json file under dir as one
// source named name (one relation per file, schema from the header row or
// column list) and registers the relations with their elevations.
func (s *System) AddFileSource(name, dir string, elevations map[string]*Elevation) error {
	w, err := filesrc.New(name, dir)
	if err != nil {
		return err
	}
	return s.addSource(w, elevations)
}

// AddSQLSource registers a configured SQL-backed source (see sqlsrc.New
// and Source.AddRelation for declaring the reachable relations; batching,
// costs and required bindings are set on the Source before registration).
func (s *System) AddSQLSource(src *sqlsrc.Source, elevations map[string]*Elevation) error {
	return s.addSource(src, elevations)
}

// AddRESTSource dials a REST backend (the discovery request runs under
// ctx), discovers its relations and statistics from the service's schema
// document, and registers them with their elevations. A nil client uses
// http.DefaultClient.
func (s *System) AddRESTSource(ctx context.Context, name, baseURL string, client *http.Client, elevations map[string]*Elevation) error {
	src, err := restsrc.DialContext(ctx, name, baseURL, client)
	if err != nil {
		return err
	}
	return s.addSource(src, elevations)
}
