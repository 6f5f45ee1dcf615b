// Package schema defines HEDC's database schema, split exactly as the paper
// prescribes (§4.1) into a generic part — administrative (3 tables),
// operational (4 tables) and location (4 tables) sections — and a domain
// specific (RHESSI related) part (7 tables). "The two parts are independent
// of each other and it is straightforward to change the RHESSI specific
// part of the schema."
//
// The DM component routes queries to either part and can vertically
// partition them onto different database instances (§5.2); nothing outside
// this package hard-codes table layouts.
//
// Every table is declared, but of the generic part this reproduction
// writes only admin_config (id sequences and retention rules),
// admin_users, op_lineage, op_archives and the four location tables.
// admin_services, op_logs and op_usage stay empty: nothing reads them
// back, so operational messages go to the process log.
package schema

import "repro/internal/minidb"

// Table names, generic part.
const (
	// Administrative section: configuration parameters, services and
	// connected clients, user and user-group profiles.
	TableConfig   = "admin_config"
	TableServices = "admin_services"
	TableUsers    = "admin_users"

	// Operational section: logs/messages, lineage of migrated or
	// transformed data, archive status, monitoring/audit trails.
	TableLogs     = "op_logs"
	TableLineage  = "op_lineage"
	TableArchives = "op_archives"
	TableUsage    = "op_usage"

	// Location section: external file references and the indirection
	// tables that make the §4.3 dynamic name mapping work.
	TableLocEntries    = "loc_entries"
	TableLocArchives   = "loc_archives"
	TableLocRoots      = "loc_roots"
	TableLocTransforms = "loc_transforms"
)

// Table names, domain-specific (RHESSI) part.
const (
	TableHLE            = "hle"
	TableANA            = "ana"
	TableCatalog        = "catalog"
	TableCatalogMembers = "catalog_members"
	TableRawUnits       = "raw_units"
	TableViews          = "views"
	TableVersions       = "versions"
	TableEvents         = "events"
)

// Name-mapping types (§4.3): "There are three types of names: filenames,
// tuple identifiers, and URLs."
const (
	NameFile  = "file"
	NameTuple = "tuple"
	NameURL   = "url"
)

// GenericSchemas returns the generic part of the schema.
func GenericSchemas() []*minidb.Schema {
	return []*minidb.Schema{
		// --- administrative section ---
		{
			Name: TableConfig,
			Columns: []minidb.Column{
				{Name: "key", Type: minidb.StringType},
				{Name: "section", Type: minidb.StringType}, // schema|query|partition|refresh|purge
				{Name: "value", Type: minidb.StringType},
				{Name: "description", Type: minidb.StringType, Nullable: true},
			},
			PrimaryKey: "key",
			Indexes:    []string{"section"},
		},
		{
			Name: TableServices,
			Columns: []minidb.Column{
				{Name: "service_id", Type: minidb.StringType},
				{Name: "type", Type: minidb.StringType}, // dm|pl|idl|web|client
				{Name: "location", Type: minidb.StringType},
				{Name: "prerequisites", Type: minidb.StringType, Nullable: true},
				{Name: "status", Type: minidb.StringType},
				{Name: "heartbeat", Type: minidb.FloatType},
			},
			PrimaryKey: "service_id",
			Indexes:    []string{"type"},
		},
		{
			Name: TableUsers,
			Columns: []minidb.Column{
				{Name: "user_id", Type: minidb.StringType},
				{Name: "password_hash", Type: minidb.StringType},
				{Name: "group_id", Type: minidb.StringType}, // admin|scientist|public
				{Name: "rights", Type: minidb.StringType},   // browse,download,analyze,upload csv
				{Name: "status", Type: minidb.StringType},
				{Name: "created", Type: minidb.FloatType},
			},
			PrimaryKey: "user_id",
			Indexes:    []string{"group_id"},
		},

		// --- operational section ---
		{
			Name: TableLogs,
			Columns: []minidb.Column{
				{Name: "log_id", Type: minidb.IntType},
				{Name: "ts", Type: minidb.FloatType},
				{Name: "level", Type: minidb.StringType},
				{Name: "component", Type: minidb.StringType},
				{Name: "message", Type: minidb.StringType},
			},
			PrimaryKey: "log_id",
			Indexes:    []string{"ts", "component"},
		},
		{
			Name: TableLineage,
			Columns: []minidb.Column{
				{Name: "lineage_id", Type: minidb.IntType},
				{Name: "item_id", Type: minidb.StringType},
				{Name: "parent_item", Type: minidb.StringType, Nullable: true},
				{Name: "operation", Type: minidb.StringType}, // load|migrate|transform|recalibrate
				{Name: "version", Type: minidb.IntType},
				{Name: "ts", Type: minidb.FloatType},
				{Name: "detail", Type: minidb.StringType, Nullable: true},
			},
			PrimaryKey: "lineage_id",
			Indexes:    []string{"item_id"},
		},
		{
			Name: TableArchives,
			Columns: []minidb.Column{
				{Name: "archive_id", Type: minidb.StringType},
				{Name: "kind", Type: minidb.StringType}, // disk|nfs|tape
				{Name: "status", Type: minidb.StringType},
				{Name: "capacity_left", Type: minidb.IntType},
				{Name: "root", Type: minidb.StringType},
			},
			PrimaryKey: "archive_id",
		},
		{
			Name: TableUsage,
			Columns: []minidb.Column{
				{Name: "stat_id", Type: minidb.IntType},
				{Name: "ts", Type: minidb.FloatType},
				{Name: "metric", Type: minidb.StringType},
				{Name: "value", Type: minidb.FloatType},
				{Name: "user_id", Type: minidb.StringType, Nullable: true},
			},
			PrimaryKey: "stat_id",
			Indexes:    []string{"metric", "ts"},
		},

		// --- location section (§4.3 name mapping) ---
		{
			Name: TableLocEntries,
			Columns: []minidb.Column{
				{Name: "entry_id", Type: minidb.IntType},
				{Name: "item_id", Type: minidb.StringType},
				{Name: "name_type", Type: minidb.StringType}, // file|tuple|url
				{Name: "archive_id", Type: minidb.StringType},
				{Name: "path", Type: minidb.StringType},
				{Name: "bytes", Type: minidb.IntType},
				{Name: "format", Type: minidb.StringType}, // fits.gz|gif|wavelet|log|params
				{Name: "owner", Type: minidb.StringType},  // files inherit their entity's ACL
				{Name: "public", Type: minidb.BoolType},
			},
			PrimaryKey: "entry_id",
			Indexes:    []string{"item_id", "archive_id"},
		},
		{
			Name: TableLocArchives,
			Columns: []minidb.Column{
				{Name: "archive_id", Type: minidb.StringType},
				{Name: "archive_type", Type: minidb.StringType},
				{Name: "path_root", Type: minidb.StringType},
				{Name: "status", Type: minidb.StringType},
			},
			PrimaryKey: "archive_id",
		},
		{
			Name: TableLocRoots,
			Columns: []minidb.Column{
				{Name: "name_type", Type: minidb.StringType},
				{Name: "root", Type: minidb.StringType},
			},
			PrimaryKey: "name_type",
		},
		{
			Name: TableLocTransforms,
			Columns: []minidb.Column{
				{Name: "format", Type: minidb.StringType},
				{Name: "transform", Type: minidb.StringType}, // none|gunzip|wavelet-decode
				{Name: "description", Type: minidb.StringType, Nullable: true},
			},
			PrimaryKey: "format",
		},
	}
}

// DomainSchemas returns the RHESSI-specific part of the schema. HLE tuples
// carry ~25 attributes and ANA tuples ~45, as the paper reports (§4.1).
func DomainSchemas() []*minidb.Schema {
	return []*minidb.Schema{
		hleSchema(),
		anaSchema(),
		{
			Name: TableCatalog,
			Columns: []minidb.Column{
				{Name: "catalog_id", Type: minidb.StringType},
				{Name: "name", Type: minidb.StringType},
				{Name: "owner", Type: minidb.StringType},
				{Name: "public", Type: minidb.BoolType},
				{Name: "kind", Type: minidb.StringType}, // standard|extended|private
				{Name: "description", Type: minidb.StringType, Nullable: true},
				{Name: "created", Type: minidb.FloatType},
			},
			PrimaryKey: "catalog_id",
			Indexes:    []string{"owner", "kind"},
		},
		{
			Name: TableCatalogMembers,
			Columns: []minidb.Column{
				{Name: "member_id", Type: minidb.IntType},
				{Name: "catalog_id", Type: minidb.StringType},
				{Name: "hle_id", Type: minidb.StringType},
				{Name: "added_by", Type: minidb.StringType},
				{Name: "added_at", Type: minidb.FloatType},
			},
			PrimaryKey: "member_id",
			Indexes:    []string{"catalog_id", "hle_id"},
		},
		{
			Name: TableRawUnits,
			Columns: []minidb.Column{
				{Name: "unit_id", Type: minidb.StringType},
				{Name: "day", Type: minidb.IntType},
				{Name: "seq", Type: minidb.IntType},
				{Name: "tstart", Type: minidb.FloatType},
				{Name: "tstop", Type: minidb.FloatType},
				{Name: "photons", Type: minidb.IntType},
				{Name: "calib_version", Type: minidb.IntType},
				{Name: "item_id", Type: minidb.StringType},
			},
			PrimaryKey: "unit_id",
			Indexes:    []string{"day", "tstart"},
		},
		{
			Name: TableViews,
			Columns: []minidb.Column{
				{Name: "view_id", Type: minidb.StringType},
				{Name: "unit_id", Type: minidb.StringType},
				{Name: "tstart", Type: minidb.FloatType},
				{Name: "tstop", Type: minidb.FloatType},
				{Name: "emin", Type: minidb.FloatType},
				{Name: "emax", Type: minidb.FloatType},
				{Name: "time_bins", Type: minidb.IntType},
				{Name: "energy_bins", Type: minidb.IntType},
				{Name: "keep", Type: minidb.FloatType},
				{Name: "item_id", Type: minidb.StringType},
			},
			PrimaryKey: "view_id",
			Indexes:    []string{"unit_id", "tstart"},
		},
		{
			// The per-photon/per-event catalog behind catalog-wide
			// analytics (flare-rate histograms, per-detector spectra).
			// event_id is assigned monotonically and t advances with it,
			// which is what makes delta-of-delta encoding and zone-map
			// pruning effective in the columnar representation.
			Name: TableEvents,
			Columns: []minidb.Column{
				{Name: "event_id", Type: minidb.IntType},
				{Name: "unit_id", Type: minidb.StringType},
				{Name: "t", Type: minidb.FloatType},
				{Name: "energy", Type: minidb.FloatType, Nullable: true},
				{Name: "detector", Type: minidb.IntType},
				{Name: "flags", Type: minidb.IntType},
			},
			PrimaryKey: "event_id",
			Indexes:    []string{"t"},
		},
		{
			Name: TableVersions,
			Columns: []minidb.Column{
				{Name: "version_id", Type: minidb.IntType},
				{Name: "entity_kind", Type: minidb.StringType}, // unit|hle|ana
				{Name: "entity_id", Type: minidb.StringType},
				{Name: "version", Type: minidb.IntType},
				{Name: "ts", Type: minidb.FloatType},
				{Name: "reason", Type: minidb.StringType, Nullable: true},
			},
			PrimaryKey: "version_id",
			Indexes:    []string{"entity_id"},
		},
	}
}

// AllSchemas returns the full schema, generic part first.
func AllSchemas() []*minidb.Schema {
	return append(GenericSchemas(), DomainSchemas()...)
}
