(** The provenance database Waldo maintains.

    Holds the provenance graph at (object, version) granularity with the
    indexes the query engine needs: forward and reverse ancestry edges, a
    complete name index (every alias a node was seen under), an inverted
    attribute index with per-attribute cardinalities, a pnode-granular
    ancestry adjacency for transitive-reachability estimates, and a
    per-node resident-version index.  All secondary indexes are
    maintained incrementally by {!add_record}/{!set_file}, so every load
    path (deserialize, merge, archive fault-in) rebuilds them, and
    {!expire} unindexes exactly the versions it drops.
    Byte accounting mirrors the paper's Table 3 ([db_bytes] for the
    tables, [index_bytes] for the indexes). *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue

type node_kind = File | Virtual

type node = {
  pnode : Pnode.t;
  mutable kind : node_kind;
  mutable node_name : string option;
  mutable max_version : int;
  mutable declared : bool;
      (** Whether some layer announced the object (a Map or Mkobj frame);
          [false] for nodes that exist only because an ancestry record
          referenced them.  The pvcheck cross-layer pass keys on this. *)
  mutable floor : int;
      (** Versions below the floor were expired into a cold-tier
          archive segment; the hot db holds [floor, max_version].  [0]
          means nothing archived.  Maintained by {!expire},
          {!deserialize} and {!merge_into} — not meant to be set by
          hand. *)
}

type quad = { q_pnode : Pnode.t; q_version : int; q_attr : string; q_value : Pvalue.t }

type t

val create : unit -> t

val set_file : t -> Pnode.t -> name:string -> unit
(** Declare [pnode] to be a file, optionally recording its name. *)

val declare_virtual : t -> Pnode.t -> unit

val add_record : t -> Pnode.t -> version:int -> Pass_core.Record.t -> unit
(** Insert one record attributed to (pnode, version), updating indexes. *)

val find_node : t -> Pnode.t -> node option
val node_count : t -> int
val quad_count : t -> int
val all_nodes : t -> node list

val compare_pv : Pnode.t * int -> Pnode.t * int -> int
(** Typed order on (pnode, version) keys (no polymorphic compare). *)

val find_by_name : t -> string -> Pnode.t list
(** Pnodes ever sighted under [name] — via {!set_file} or a NAME record —
    in pnode order.  A complete superset for name-equality predicates:
    the query planner uses it as an access path and re-checks exact
    semantics afterwards. *)

val name_of : t -> Pnode.t -> string option

val versions : t -> Pnode.t -> int list
(** All version numbers [0..max_version] of [pnode], resident or not.
    The enumeration is memoized per node (rebuilt only when the max
    version grows), so calling this in a loop no longer allocates. *)

val resident_versions : t -> Pnode.t -> int list
(** Ascending versions of [pnode] that hold at least one resident quad —
    the maintained index behind {!records_all}/{!out_edges_all}.  Does
    not fault the archive in. *)

val version_range : t -> Pnode.t -> (int * int) option
(** [(floor, max_version)] of [pnode]: the hot tier holds versions in
    [floor, max_version]; anything below the floor is archived. *)

val records_at : t -> Pnode.t -> version:int -> quad list
val records_all : t -> Pnode.t -> quad list

val out_edges : t -> Pnode.t -> version:int -> (string * Pvalue.xref) list
(** Ancestry edges leaving (pnode, version): attribute and target. *)

val out_edges_all : t -> Pnode.t -> (int * string * Pvalue.xref) list

val in_edges : t -> Pnode.t -> (Pnode.t * int * string * int) list
(** Who refers to [pnode]: (source pnode, source version, attribute,
    referenced version of [pnode]). *)

val with_attr : t -> string -> (Pnode.t * int) list
(** Distinct (pnode, version) pairs holding at least one record whose
    attribute matches [attr] case-insensitively, in {!compare_pv} order.
    Entries are deduplicated at insert and the sorted view is memoized,
    so repeated probes no longer re-sort — and re-ingesting the same
    record (merge, fault-in, replay) no longer duplicates entries. *)

val attr_value : t -> Pnode.t -> version:int -> string -> Pvalue.t option

(** {2 Planner statistics}

    Cardinality inputs for the PQL cost-based planner.  These read the
    hot tier as-is and never fault the archive in: estimates must stay
    side-effect free at prepare time (execution uses the exact accessors
    above, which do fault in). *)

val file_count : t -> int
(** How many nodes are files. *)

val edge_count : t -> int
(** Ancestry records ingested, with multiplicity. *)

val attr_cardinality : t -> string -> int
(** Distinct (pnode, version) entries under [attr] (case-insensitive)
    — the length of {!with_attr}'s result, without building it. *)

val parents_of : t -> Pnode.t -> Pnode.t list
(** Direct ancestry parents at pnode granularity (version collapsed,
    freeze self-edges excluded), in first-sighting order. *)

val children_of : t -> Pnode.t -> Pnode.t list

val reach_ancestors : t -> ?limit:int -> Pnode.t -> Pnode.t list
(** Transitive ancestry reachability over {!parents_of}, excluding the
    start, in BFS order; [limit] caps the number of nodes returned so
    the planner can bound estimation work. *)

val reach_descendants : t -> ?limit:int -> Pnode.t -> Pnode.t list

(** {2 Images}

    An image is the on-disk form of the node table plus the resident
    quads of one version range per node (secondary indexes are rebuilt by
    {!deserialize}).  Nodes are written in pnode order, versions
    ascending, each version's quads in ingest order.  The current format,
    PROVDB4, appends an index-stats footer — edge count and distinct
    attribute postings per (pnode, version) over the quads written — so a
    loader can prove its rebuilt indexes agree with the writer's.  Images
    read only resident quads: writing one never faults the archive in. *)

type range =
  | All  (** every resident version, floors as they are *)
  | Hot of int
      (** [Hot keep]: per node the newest [keep] versions (at least 1),
          [cutoff, max_version] with [cutoff = max floor (max_version -
          keep + 1)], written with the floor raised to the cutoff — the
          checkpoint image *)
  | Cold of int
      (** [Cold keep]: [floor, cutoff), floors as they are — the archive
          segment of what [Hot keep] leaves out.  Versions below the floor
          are never re-emitted: earlier segments are append-only. *)

type image
(** A measured image of a db: its exact size is known before a byte is
    written.  Valid until the db changes. *)

val image : ?range:range -> t -> image
(** Measure the image of [range] (default [All]). *)

val image_size : image -> int
val image_quads : image -> int

val write_image : image -> Bytes.t -> int -> unit
(** [write_image im b off] writes the image into [b] at [off]; [b] must
    hold {!image_size}[ im] bytes there. *)

val serialize : ?range:range -> t -> string
(** The image of [range] (default [All]) as a string. *)

val deserialize : string -> t
(** Loads a PROVDB4 image, rebuilding the secondary indexes.
    @raise Wire.Corrupt on a malformed image, any other magic (the
    footer-less PROVDB3/PROVDB2 formats included), or when the footer
    disagrees with the rebuilt indexes. *)

val merge_into : dst:t -> src:t -> unit
(** Merge [src] into [dst], giving the query engine a unified view over
    several volumes (e.g. the Figure 1 scenario's two NFS servers plus
    the local disk).  Version metadata is carried along: [dst] nodes
    take the max of both sides' [max_version] and [floor]. *)

val expire : t -> keep:int -> unit
(** [expire t ~keep] drops in place every resident version that
    [image ~range:(Hot keep)] leaves out, faulted-in archive versions
    included, raises each node's floor to its cutoff and marks the archive
    unloaded.  Afterwards [t] equals [deserialize] of the [Hot keep] image
    taken just before — nodes, quads, every index as a set, and both byte
    counters — so a checkpoint can write its image from the live db and
    then expire, with work proportional to what expires.  The one
    exception is a node a NAME record named "": a virtual one keeps "",
    and a file takes its first kept NAME record without a byte charge,
    where a deserialized image would name both and charge the file.
    Re-arm the fault handler with the new segment list afterwards. *)

val set_fault_handler : t -> (t -> bool) -> unit
(** Register the archive fault-in handler: called at most once per
    load (guarded by {!cold_loaded}) when a query needs versions below
    some node's floor.  The handler repopulates [t] from the cold tier
    and returns [false] on an IO failure, which re-arms the trigger. *)

val fault_in : t -> unit
(** Explicitly load archived history now (no-op without a handler,
    archived versions, or when already loaded). *)

val cold_loaded : t -> bool
(** Whether archived history has been faulted in. *)

val has_cold : t -> bool
(** Whether any node has a floor above 0 (i.e. an archive exists). *)

val db_bytes : t -> int
val index_bytes : t -> int
val total_bytes : t -> int

val is_acyclic : t -> bool
(** DESIGN.md invariant 1: the stored graph is a DAG at version
    granularity. *)

val ancestors : t -> Pnode.t -> version:int -> (Pnode.t * int) list
(** Transitive ancestor closure over ancestry edges (what [input*]
    walks). *)

val verify_indexes : t -> (unit, string) result
(** Rebuild-and-compare self-check: round-trips the db through its
    on-disk form (which reconstructs every secondary index from the quad
    store alone) and diffs each maintained index — names, attr postings
    and cardinalities, ancestry adjacency, resident versions, version
    ranges, counters — against the live one.  [Error msg] names the
    first drift found.  Faults the archive in first so the comparison
    covers the whole history. *)
