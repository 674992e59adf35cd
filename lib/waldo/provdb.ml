(* The provenance database Waldo maintains (paper §5.6).

   PASSv1 wrote provenance directly into databases; PASSv2 writes a log
   that Waldo later moves into a database and indexes.  The database holds
   the provenance graph at (object, version) granularity:

   - a node table: pnode -> kind, latest known name, known versions;
   - a quad store: (pnode, version, attribute, value);
   - a forward edge index: (pnode, version) -> ancestry cross-references;
   - a reverse edge index: pnode -> who refers to it;
   - a name index: name -> pnodes (every name sighting, deduplicated);
   - an attribute inverted index: attribute -> distinct (pnode, version)
     occurrences with a per-attribute cardinality count;
   - a pnode-granular ancestry adjacency (parents/children), giving the
     query planner transitive-reachability estimates without touching
     the version-level edge tables;
   - a per-node resident-version index (which versions hold quads).

   All secondary indexes are maintained incrementally by [add_record] and
   [set_file], so every load path — deserialize, merge_into, archive
   fault-in — rebuilds them for free, and [expire] unindexes exactly the
   versions it drops.  Byte accounting mirrors Table 3: [db_bytes] is the
   encoded size of the node and quad tables, [index_bytes] the encoded
   size of the indexes. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue
module Record = Pass_core.Record

type node_kind = File | Virtual

type node = {
  pnode : Pnode.t;
  mutable kind : node_kind;
  mutable node_name : string option;
  mutable max_version : int;
  mutable declared : bool;
      (* true when some layer announced the object (a Map or Mkobj frame,
         via set_file/declare_virtual); false for nodes that exist only
         because an ancestry record referenced them.  pvcheck's
         cross-layer pass keys on this: a referenced-but-never-declared
         object is a dangling identity. *)
  mutable floor : int;
      (* versions below the floor were compacted into a cold-tier archive
         segment; the hot db holds [floor, max_version].  0 = nothing
         archived.  Queries that dip below a floor fault the archive in
         through the registered handler. *)
}

type quad = { q_pnode : Pnode.t; q_version : int; q_attr : string; q_value : Pvalue.t }

(* One inverted-index posting set, deduplicated by construction.  The
   sorted view handed to queries is memoized and invalidated on insert
   and removal, so repeated [with_attr] probes do not re-sort. *)
type attr_entry = {
  ae_seen : (Pnode.t * int, unit) Hashtbl.t;
  mutable ae_sorted : (Pnode.t * int) list option;
}

type t = {
  nodes : (Pnode.t, node) Hashtbl.t;
  quads : (Pnode.t * int, quad list ref) Hashtbl.t; (* newest first *)
  fwd : (Pnode.t * int, (string * Pvalue.xref) list ref) Hashtbl.t;
  rev : (Pnode.t, (Pnode.t * int * string * int) list ref) Hashtbl.t;
  names : (string, Pnode.t list ref) Hashtbl.t;
  attrs : (string, attr_entry) Hashtbl.t;
      (* keyed by uppercased attribute, matching the evaluator's
         case-insensitive attribute semantics *)
  anc : (Pnode.t, Pnode.t list ref) Hashtbl.t; (* direct ancestry parents *)
  desc : (Pnode.t, Pnode.t list ref) Hashtbl.t; (* direct ancestry children *)
  adj_seen : (Pnode.t * Pnode.t, unit) Hashtbl.t; (* dedup for anc/desc *)
  resident : (Pnode.t, int list ref) Hashtbl.t;
      (* ascending versions that hold at least one quad *)
  versions_memo : (Pnode.t, int * int list) Hashtbl.t;
      (* memoized [0..max_version] enumeration, keyed by the max it was
         built for (ISSUE 9 small fix: no per-call re-allocation) *)
  mutable quad_count : int;
  mutable quad_bytes : int; (* the quad table's share of db_bytes *)
  mutable edge_count : int; (* ancestry quads ingested, with multiplicity *)
  mutable file_count : int;
  mutable db_bytes : int;
  mutable index_bytes : int;
  mutable floored : int;  (* how many nodes have floor > 0 *)
  mutable renamed : (string * Pnode.t) list;
      (* aliases a set_file rename left behind: a rebuild indexes only a
         node's current name and its NAME records, so [expire] re-checks
         these *)
  mutable cold_loaded : bool;  (* archive history already faulted in *)
  mutable fault_handler : fault_handler option;
}

and fault_handler = t -> bool
(* Loads archived history into the db (via add_record/merge_into);
   returns false on an IO failure so the fault-in can be retried. *)

let create () =
  {
    nodes = Hashtbl.create 4096;
    quads = Hashtbl.create 8192;
    fwd = Hashtbl.create 8192;
    rev = Hashtbl.create 8192;
    names = Hashtbl.create 1024;
    attrs = Hashtbl.create 64;
    anc = Hashtbl.create 4096;
    desc = Hashtbl.create 4096;
    adj_seen = Hashtbl.create 8192;
    resident = Hashtbl.create 8192;
    versions_memo = Hashtbl.create 256;
    quad_count = 0;
    quad_bytes = 0;
    edge_count = 0;
    file_count = 0;
    db_bytes = 0;
    index_bytes = 0;
    floored = 0;
    renamed = [];
    cold_loaded = false;
    fault_handler = None;
  }

let multi_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl key (ref [ v ])

let node t pnode =
  match Hashtbl.find_opt t.nodes pnode with
  | Some n -> n
  | None ->
      let n =
        { pnode; kind = Virtual; node_name = None; max_version = 0; declared = false; floor = 0 }
      in
      Hashtbl.add t.nodes pnode n;
      t.db_bytes <- t.db_bytes + 24;
      n

(* Index one name sighting.  Every alias a node was ever seen under is
   indexed (set_file names and NAME records alike), so [find_by_name] is
   a complete superset for any name-equality predicate — the planner
   relies on this.  Entries are deduplicated at insert. *)
let index_name t name pnode =
  if name <> "" then
    match Hashtbl.find_opt t.names name with
    | Some l ->
        if not (List.exists (fun p -> Pnode.equal p pnode) !l) then begin
          l := pnode :: !l;
          t.index_bytes <- t.index_bytes + String.length name + 12
        end
    | None ->
        Hashtbl.add t.names name (ref [ pnode ]);
        t.index_bytes <- t.index_bytes + String.length name + 12

let set_file t pnode ~name =
  let n = node t pnode in
  (match n.kind with
  | Virtual -> t.file_count <- t.file_count + 1
  | File -> ());
  n.kind <- File;
  n.declared <- true;
  if name <> "" then begin
    (match n.node_name with
    | Some old when old <> "" && not (String.equal old name) -> t.renamed <- (old, pnode) :: t.renamed
    | Some _ -> ()
    | None -> t.db_bytes <- t.db_bytes + String.length name);
    n.node_name <- Some name;
    index_name t name pnode
  end

let declare_virtual t pnode =
  let n = node t pnode in
  n.declared <- true

(* Attribute-index key: the uppercased attribute, allocated only when
   there is something to uppercase. *)
let is_lower c = c >= 'a' && c <= 'z'
let attr_key attr = if String.exists is_lower attr then String.uppercase_ascii attr else attr

let attr_entry t key =
  match Hashtbl.find_opt t.attrs key with
  | Some ae -> ae
  | None ->
      let ae = { ae_seen = Hashtbl.create 64; ae_sorted = None } in
      Hashtbl.add t.attrs key ae;
      ae

(* Record a direct pnode-level ancestry edge [src -> parent].  Freeze
   edges (same pnode, earlier version) are skipped: they carry no
   cross-object reachability and would put self-loops in the adjacency. *)
let add_adjacency t src parent =
  if not (Pnode.equal src parent) && not (Hashtbl.mem t.adj_seen (src, parent)) then begin
    Hashtbl.replace t.adj_seen (src, parent) ();
    multi_add t.anc src parent;
    multi_add t.desc parent src;
    t.index_bytes <- t.index_bytes + 32
  end

let rec insert_version v = function
  | [] -> [ v ]
  | x :: _ as l when v < x -> v :: l
  | x :: rest -> x :: insert_version v rest

(* Insert one record attributed to (pnode, version). *)
let add_record t pnode ~version (record : Record.t) =
  let n = node t pnode in
  if version > n.max_version then n.max_version <- version;
  let q = { q_pnode = pnode; q_version = version; q_attr = record.attr; q_value = record.value } in
  (match Hashtbl.find_opt t.quads (pnode, version) with
  | Some l -> l := q :: !l
  | None ->
      Hashtbl.add t.quads (pnode, version) (ref [ q ]);
      (* first quad at this version: maintain the resident-version index *)
      (match Hashtbl.find_opt t.resident pnode with
      | Some l -> l := insert_version version !l
      | None -> Hashtbl.add t.resident pnode (ref [ version ])));
  t.quad_count <- t.quad_count + 1;
  let sz = Record.encoded_size record + 16 in
  t.quad_bytes <- t.quad_bytes + sz;
  t.db_bytes <- t.db_bytes + sz;
  let ae = attr_entry t (attr_key record.attr) in
  if not (Hashtbl.mem ae.ae_seen (pnode, version)) then begin
    Hashtbl.replace ae.ae_seen (pnode, version) ();
    ae.ae_sorted <- None;
    t.index_bytes <- t.index_bytes + 20 (* attr index entry *)
  end;
  (match record.value with
  | Pvalue.Xref x when Record.is_ancestry record ->
      multi_add t.fwd (pnode, version) (record.attr, x);
      multi_add t.rev x.pnode (pnode, version, record.attr, x.version);
      let _ : node = node t x.pnode in
      t.edge_count <- t.edge_count + 1;
      add_adjacency t pnode x.pnode;
      t.index_bytes <- t.index_bytes + 40 (* fwd + rev entries *)
  | Pvalue.Str s when String.equal record.attr Record.Attr.name ->
      let n = node t pnode in
      if n.node_name = None then n.node_name <- Some s;
      index_name t s pnode
  | _ -> ())

(* --- cold-tier fault-in --------------------------------------------------- *)

(* Floors are only ever set through this so [floored] stays in sync. *)
let set_floor t (n : node) f =
  if n.floor = 0 && f > 0 then t.floored <- t.floored + 1
  else if n.floor > 0 && f = 0 then t.floored <- t.floored - 1;
  n.floor <- f

let set_fault_handler t f = t.fault_handler <- Some f
let cold_loaded t = t.cold_loaded
let has_cold t = t.floored > 0

(* Load archived history on first demand.  [cold_loaded] is set before
   the handler runs: the handler repopulates the db with add_record /
   merge_into, which never read back through the triggering accessors,
   and the flag keeps a recursive trigger from looping.  Floors are NOT
   cleared — they still describe which versions live in which tier —
   so the flag is the only re-trigger gate; on handler failure it is
   reset so a later query retries the IO. *)
let maybe_fault_in t =
  match t.fault_handler with
  | Some f when (not t.cold_loaded) && t.floored > 0 ->
      t.cold_loaded <- true;
      if not (f t) then t.cold_loaded <- false
  | _ -> ()

let fault_in t = maybe_fault_in t

(* --- query access -------------------------------------------------------- *)

let find_node t pnode = Hashtbl.find_opt t.nodes pnode
let node_count t = Hashtbl.length t.nodes
let quad_count t = t.quad_count

let all_nodes t = Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []

let find_by_name t name =
  match Hashtbl.find_opt t.names name with
  | Some l -> List.sort Pnode.compare !l
  | None -> []

(* Typed order on (pnode, version) keys — the attr index and pvcheck sort
   with this instead of polymorphic compare. *)
let compare_pv (p, v) (p', v') =
  match Pnode.compare p p' with 0 -> Int.compare v v' | c -> c

let name_of t pnode = Option.bind (find_node t pnode) (fun n -> n.node_name)

let versions t pnode =
  match find_node t pnode with
  | None -> []
  | Some n -> (
      match Hashtbl.find_opt t.versions_memo pnode with
      | Some (hi, l) when hi = n.max_version -> l
      | _ ->
          let l = List.init (n.max_version + 1) Fun.id in
          Hashtbl.replace t.versions_memo pnode (n.max_version, l);
          l)

let resident_versions t pnode =
  match Hashtbl.find_opt t.resident pnode with Some l -> !l | None -> []

let version_range t pnode =
  match find_node t pnode with None -> None | Some n -> Some (n.floor, n.max_version)

(* Raw accessors see only what is resident — images and expire use them
   so snapshotting the hot tier never faults the archive in. *)
let records_at_raw t pnode ~version =
  match Hashtbl.find_opt t.quads (pnode, version) with
  | Some l -> List.rev !l
  | None -> []

let out_edges_raw t pnode ~version =
  match Hashtbl.find_opt t.fwd (pnode, version) with Some l -> List.rev !l | None -> []

(* A query for a version below the node's floor needs archived history. *)
let below_floor t pnode version =
  match Hashtbl.find_opt t.nodes pnode with
  | Some n -> version < n.floor
  | None -> false

(* Whole-history accessors fault the archive in up front when the node
   has a floor, then walk the resident-version index — versions that
   never held a quad are skipped instead of probed one by one. *)
let fault_in_node_history t pnode =
  if t.floored > 0 then
    match Hashtbl.find_opt t.nodes pnode with
    | Some n when n.floor > 0 -> maybe_fault_in t
    | _ -> ()

let records_at t pnode ~version =
  if below_floor t pnode version then maybe_fault_in t;
  records_at_raw t pnode ~version

let records_all t pnode =
  fault_in_node_history t pnode;
  List.concat_map (fun v -> records_at_raw t pnode ~version:v) (resident_versions t pnode)

let out_edges t pnode ~version =
  if below_floor t pnode version then maybe_fault_in t;
  out_edges_raw t pnode ~version

let out_edges_all t pnode =
  fault_in_node_history t pnode;
  List.concat_map
    (fun v -> List.map (fun (a, x) -> (v, a, x)) (out_edges_raw t pnode ~version:v))
    (resident_versions t pnode)

let in_edges t pnode =
  (* reverse edges into [pnode] can originate from any node's archived
     versions, so the presence of any floor is reason to fault in *)
  if t.floored > 0 then maybe_fault_in t;
  match Hashtbl.find_opt t.rev pnode with Some l -> List.rev !l | None -> []

let with_attr t attr =
  if t.floored > 0 then maybe_fault_in t;
  match Hashtbl.find_opt t.attrs (attr_key attr) with
  | None -> []
  | Some ae -> (
      match ae.ae_sorted with
      | Some l -> l
      | None ->
          let l = List.sort compare_pv (Hashtbl.fold (fun pv () acc -> pv :: acc) ae.ae_seen []) in
          ae.ae_sorted <- Some l;
          l)

let attr_value t pnode ~version attr =
  List.find_map
    (fun (q : quad) -> if String.equal q.q_attr attr then Some q.q_value else None)
    (records_at t pnode ~version)

(* --- planner statistics --------------------------------------------------- *)

(* Statistics read the hot tier as-is (no fault-in): they feed cardinality
   *estimates*, and estimation must stay side-effect free at prepare
   time.  Execution uses the exact accessors above, which do fault in. *)

let file_count t = t.file_count
let edge_count t = t.edge_count

let attr_cardinality t attr =
  match Hashtbl.find_opt t.attrs (attr_key attr) with
  | Some ae -> Hashtbl.length ae.ae_seen
  | None -> 0

let parents_of t pnode =
  match Hashtbl.find_opt t.anc pnode with Some l -> List.rev !l | None -> []

let children_of t pnode =
  match Hashtbl.find_opt t.desc pnode with Some l -> List.rev !l | None -> []

let reach tbl ?limit start =
  let cap = match limit with Some c -> c | None -> max_int in
  let seen : (Pnode.t, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace seen start ();
  let queue = Queue.create () in
  Queue.add start queue;
  let out = ref [] in
  let count = ref 0 in
  while (not (Queue.is_empty queue)) && !count < cap do
    let p = Queue.pop queue in
    List.iter
      (fun next ->
        if not (Hashtbl.mem seen next) then begin
          Hashtbl.replace seen next ();
          incr count;
          out := next :: !out;
          Queue.add next queue
        end)
      (match Hashtbl.find_opt tbl p with Some l -> !l | None -> [])
  done;
  List.rev !out

let reach_ancestors t ?limit pnode = reach t.anc ?limit pnode
let reach_descendants t ?limit pnode = reach t.desc ?limit pnode

let db_bytes t = t.db_bytes
let index_bytes t = t.index_bytes
let total_bytes t = t.db_bytes + t.index_bytes

(* Merge [src] into [dst]: used by the query engine to get a unified view
   over several volumes' databases (e.g. two NFS servers plus the local
   disk in the Figure 1 scenario). *)
let merge_into ~dst ~src =
  Hashtbl.iter
    (fun _ (n : node) ->
      (match (n.kind, n.declared) with
      | File, _ -> set_file dst n.pnode ~name:(Option.value n.node_name ~default:"")
      | Virtual, true -> declare_virtual dst n.pnode
      | Virtual, false ->
          (* an undeclared stub stays a stub: merging must not launder a
             dangling reference into a declared identity *)
          let _ : node = node dst n.pnode in
          ());
      (match n.node_name with
      | Some nm when n.kind = Virtual ->
          (* preserve names of virtual objects too *)
          let d = node dst n.pnode in
          if d.node_name = None then d.node_name <- Some nm;
          index_name dst nm n.pnode
      | _ -> ());
      (* carry version metadata: the max known version can exceed the
         highest resident quad (empty versions), and the archive floor
         must survive a merge-based load *)
      let d = node dst n.pnode in
      if n.max_version > d.max_version then d.max_version <- n.max_version;
      if n.floor > d.floor then set_floor dst d n.floor)
    src.nodes;
  Hashtbl.iter
    (fun (pnode, version) quads ->
      List.iter
        (fun (q : quad) -> add_record dst pnode ~version { attr = q.q_attr; value = q.q_value })
        (List.rev !quads))
    src.quads

(* --- on-disk form ---------------------------------------------------------- *)

(* Sum of per-attribute posting-list cardinalities: part of the PROVDB4
   index-stats footer, recomputed after load to prove the rebuilt
   secondary indexes agree with the writer's. *)
let attr_entry_total t = Hashtbl.fold (fun _ ae acc -> acc + Hashtbl.length ae.ae_seen) t.attrs 0

(* An image is the node table plus, per node, the resident quads of one
   version range, written in a deterministic order so persisted images
   are stable: nodes in pnode order, versions ascending, each version's
   quads in ingest order.  Only resident quads are written (raw
   accessors), so the hot tier snapshots without faulting the archive
   in.  Quad bytes are a pure function of which versions are resident —
   each version's quads live wholly in one tier and keep their ingest
   order — so two dbs that went through the same expiry history write
   identical images no matter how they got there (replay, image load,
   fault-in).

   The ranges follow the paper's frozen-version semantics: a version
   below the latest is immutable, so all but the newest [keep] versions
   of a node can leave the hot tier.  Per node the cutoff is
   [max floor (max_version - keep + 1)], and

   - [Hot keep] writes [cutoff, max_version] with the floor raised to
     the cutoff: the checkpoint image, and exactly what {!expire} keeps;
   - [Cold keep] writes [floor, cutoff) with the floor as it is: this
     generation's archive segment.  Versions below the floor are never
     re-emitted even when resident (faulted in), since earlier segments
     are append-only;
   - [All] writes every resident version from 0 with the floor as it is.

   Every range carries the full node table (node entries are a few dozen
   bytes; quads and edges are the bulk), so the hot tier answers
   existence/name/version queries without touching the archive.

   PROVDB4 appends an index-stats footer: the ancestry-edge count and the
   distinct attribute postings per (pnode, version), over the quads
   written.  [All] writes the live counters instead, which agree unless
   incremental index maintenance drifted — and then deserialize, which
   recomputes both from its rebuilt indexes, rejects the image. *)
type range = All | Hot of int | Cold of int

let cutoff ~keep n = max n.floor (max 0 (n.max_version - max 1 keep + 1))

let range_lo range n =
  match range with All -> 0 | Hot keep -> cutoff ~keep n | Cold _ -> n.floor

let range_hi range n =
  match range with All | Hot _ -> n.max_version | Cold keep -> cutoff ~keep n - 1

let range_floor range n = match range with All | Cold _ -> n.floor | Hot keep -> cutoff ~keep n

(* The value of the oldest NAME record at versions [lo, hi] of [n]. *)
let first_name t n ~lo ~hi =
  let name (q : quad) =
    match q.q_value with
    | Pvalue.Str s when String.equal q.q_attr Record.Attr.name -> Some s
    | _ -> None
  in
  List.find_map
    (fun v -> if v < lo || v > hi then None else List.find_map name (records_at_raw t n.pnode ~version:v))
    (resident_versions t n.pnode)

(* The name a node-table entry carries.  Hot and cold images carry the
   name a db re-ingesting only their range would hold: a file declared
   under the empty name takes its first NAME record in the range. *)
let image_name t range n =
  match (n.node_name, range) with
  | Some "", (Hot _ | Cold _) when n.kind = File ->
      Option.value (first_name t n ~lo:(range_lo range n) ~hi:(range_hi range n)) ~default:""
  | Some s, _ -> s
  | None, _ -> ""

(* [Record.encoded_size] of a quad's record, without building it. *)
let quad_size (q : quad) = 4 + String.length q.q_attr + Pvalue.encoded_size q.q_value

let rec same_key_from a b i =
  i = String.length a
  || (Char.equal (Char.uppercase_ascii a.[i]) (Char.uppercase_ascii b.[i]) && same_key_from a b (i + 1))

(* Whether [a] and [b] share an attribute-index key, without building it. *)
let same_attr_key a b = String.length a = String.length b && same_key_from a b 0

type image = {
  i_db : t;
  i_range : range;
  i_nodes : node array; (* pnode order *)
  i_size : int;
  i_quads : int;
  i_edges : int;
  i_postings : int;
}

type tally = {
  mutable n_quads : int;
  mutable n_bytes : int;
  mutable n_edges : int;
  mutable n_postings : int;
}

let rec has_attr_key attr = function
  | [] -> false
  | (q : quad) :: rest -> same_attr_key attr q.q_attr || has_attr_key attr rest

(* Count one version's quads (newest first): a quad opens a posting
   unless an older quad of the version has the same attribute key. *)
let rec tally_version acc = function
  | [] -> ()
  | (q : quad) :: older ->
      acc.n_quads <- acc.n_quads + 1;
      acc.n_bytes <- acc.n_bytes + 16 + quad_size q;
      (match q.q_value with Pvalue.Xref _ -> acc.n_edges <- acc.n_edges + 1 | _ -> ());
      if not (has_attr_key q.q_attr older) then acc.n_postings <- acc.n_postings + 1;
      tally_version acc older

(* The resident versions [vs] (ascending) of [p] within [lo, hi], as the
   quad lists the image writes.  Every resident version holds quads. *)
let rec tally_versions t acc p ~lo ~hi = function
  | v :: rest when v <= hi ->
      if v >= lo then tally_version acc !(Hashtbl.find t.quads (p, v));
      tally_versions t acc p ~lo ~hi rest
  | _ -> ()

let sorted_nodes t =
  let nodes = ref [||] and i = ref 0 in
  Hashtbl.iter
    (fun _ n ->
      if !i = 0 then nodes := Array.make (Hashtbl.length t.nodes) n;
      !nodes.(!i) <- n;
      incr i)
    t.nodes;
  Array.sort (fun a b -> Pnode.compare a.pnode b.pnode) !nodes;
  !nodes

let image ?(range = All) t =
  let nodes = sorted_nodes t in
  let acc = { n_quads = 0; n_bytes = 0; n_edges = 0; n_postings = 0 } in
  let table = ref 0 in
  Array.iter
    (fun n ->
      (* pnode, kind, name, max_version, floor *)
      table := !table + 29 + String.length (image_name t range n);
      tally_versions t acc n.pnode ~lo:(range_lo range n) ~hi:(range_hi range n) (resident_versions t n.pnode))
    nodes;
  let edges, postings =
    match range with
    | All -> (t.edge_count, attr_entry_total t)
    | Hot _ | Cold _ -> (acc.n_edges, acc.n_postings)
  in
  {
    i_db = t;
    i_range = range;
    i_nodes = nodes;
    (* magic, node count, node table, quad count, quads, footer *)
    i_size = 11 + 4 + !table + 4 + acc.n_bytes + 16;
    i_quads = acc.n_quads;
    i_edges = edges;
    i_postings = postings;
  }

let image_size im = im.i_size
let image_quads im = im.i_quads

let write_node im b off n =
  let off = Wire.set_i64 b off (Pnode.to_int n.pnode) in
  (* kind byte: 1 = file, 2 = declared virtual, 0 = undeclared stub *)
  let off =
    Wire.set_u8 b off (match (n.kind, n.declared) with File, _ -> 1 | Virtual, true -> 2 | Virtual, false -> 0)
  in
  let off = Wire.set_string b off (image_name im.i_db im.i_range n) in
  let off = Wire.set_i64 b off n.max_version in
  Wire.set_i64 b off (range_floor im.i_range n)

(* A version's quads are stored newest first; write them oldest first. *)
let rec write_version b off = function
  | [] -> off
  | (q : quad) :: older ->
      let off = write_version b off older in
      let off = Wire.set_i64 b off (Pnode.to_int q.q_pnode) in
      let off = Wire.set_i64 b off q.q_version in
      Pvalue.write b (Wire.set_string b off q.q_attr) q.q_value

let rec write_versions t b off p ~lo ~hi = function
  | v :: rest when v <= hi ->
      let off = if v >= lo then write_version b off !(Hashtbl.find t.quads (p, v)) else off in
      write_versions t b off p ~lo ~hi rest
  | _ -> off

let write_quads im b off n =
  write_versions im.i_db b off n.pnode ~lo:(range_lo im.i_range n) ~hi:(range_hi im.i_range n)
    (resident_versions im.i_db n.pnode)

let write_image im b off =
  let start = off in
  let off = Wire.set_string b off "PROVDB4" in
  let off = Wire.set_u32 b off (Array.length im.i_nodes) in
  let off = Array.fold_left (write_node im b) off im.i_nodes in
  let off = Wire.set_u32 b off im.i_quads in
  let off = Array.fold_left (write_quads im b) off im.i_nodes in
  let off = Wire.set_i64 b off im.i_edges in
  let off = Wire.set_i64 b off im.i_postings in
  if off - start <> im.i_size then invalid_arg "Provdb.write_image: size drifted"

let serialize ?range t =
  let im = image ?range t in
  let b = Bytes.create im.i_size in
  write_image im b 0;
  Bytes.unsafe_to_string b

let deserialize image =
  let pos = ref 0 in
  let version =
    match Wire.get_string image pos with
    | "PROVDB4" -> 4
    | "PROVDB3" -> 3 (* pre-planner images: no index-stats footer *)
    | "PROVDB2" -> 2 (* pre-floor images, still loadable *)
    | _ -> Wire.corrupt "provdb: bad magic"
  in
  let t = create () in
  let n_nodes = Wire.get_u32 image pos in
  for _ = 1 to n_nodes do
    let pnode = Pnode.of_int (Wire.get_i64 image pos) in
    let kind = Wire.get_u8 image pos in
    let name = Wire.get_string image pos in
    let maxv = Wire.get_i64 image pos in
    let floor = if version >= 3 then Wire.get_i64 image pos else 0 in
    (match kind with
    | 1 -> set_file t pnode ~name
    | _ ->
        if kind = 2 then declare_virtual t pnode
        else begin
          let _ : node = node t pnode in
          ()
        end;
        (* virtual objects and stubs can carry names too (a merge or an
           archived NAME record gives them one) *)
        if name <> "" then begin
          let n = node t pnode in
          if n.node_name = None then n.node_name <- Some name;
          index_name t name pnode
        end);
    (* honour stored version metadata: a compacted image's floor, and a
       max_version that may exceed the highest resident quad *)
    let n = node t pnode in
    if maxv > n.max_version then n.max_version <- maxv;
    if floor > 0 then set_floor t n floor
  done;
  let n_quads = Wire.get_u32 image pos in
  for _ = 1 to n_quads do
    let pnode = Pnode.of_int (Wire.get_i64 image pos) in
    let version = Wire.get_i64 image pos in
    let record = Record.decode image pos in
    add_record t pnode ~version record
  done;
  if version >= 4 then begin
    let edges = Wire.get_i64 image pos in
    let attr_total = Wire.get_i64 image pos in
    if edges <> t.edge_count || attr_total <> attr_entry_total t then
      Wire.corrupt "provdb: index-stats footer disagrees with rebuilt indexes"
  end;
  t

(* --- in-place expiry ------------------------------------------------------- *)

(* Drop every resident version below its node's cutoff and raise the
   floors, leaving [t] as a db that re-ingested only the [Hot keep]
   image's quads under the full node table would be: the same nodes,
   quads, floors and counters, and the same index entries as sets.
   That is [deserialize] of the image, except for a node a NAME record
   named "": a virtual one keeps "", and a file takes its first kept
   NAME record without a byte charge.  Each index loses exactly the
   dropped versions' entries, so the work follows what expires. *)

let remove_first eq x l =
  let rec go = function [] -> [] | y :: rest -> if eq x y then rest else y :: go rest in
  go l

let remove_pair t src parent =
  Hashtbl.remove t.adj_seen (src, parent);
  let drop tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some l -> (
        match remove_first Pnode.equal v !l with [] -> Hashtbl.remove tbl key | rest -> l := rest)
    | None -> ()
  in
  drop t.anc src parent;
  drop t.desc parent src;
  t.index_bytes <- t.index_bytes - 32

let remove_alias t name pnode =
  match Hashtbl.find_opt t.names name with
  | Some l when List.exists (Pnode.equal pnode) !l ->
      (match remove_first Pnode.equal pnode !l with [] -> Hashtbl.remove t.names name | rest -> l := rest);
      t.index_bytes <- t.index_bytes - String.length name - 12
  | _ -> ()

(* Unindex the dropped quads of one version; [key] is its (pnode,
   version).  Ancestry targets are collected in [targets] for the
   reverse-edge pass. *)
let rec unindex_quads t key targets = function
  | [] -> ()
  | (q : quad) :: rest ->
      t.quad_count <- t.quad_count - 1;
      t.quad_bytes <- t.quad_bytes - 16 - quad_size q;
      let k = attr_key q.q_attr in
      (match Hashtbl.find_opt t.attrs k with
      | Some ae when Hashtbl.mem ae.ae_seen key ->
          Hashtbl.remove ae.ae_seen key;
          ae.ae_sorted <- None;
          t.index_bytes <- t.index_bytes - 20;
          if Hashtbl.length ae.ae_seen = 0 then Hashtbl.remove t.attrs k
      | _ -> ());
      (match q.q_value with
      | Pvalue.Xref x ->
          t.edge_count <- t.edge_count - 1;
          t.index_bytes <- t.index_bytes - 40;
          Hashtbl.replace targets x.pnode ()
      | _ -> ());
      unindex_quads t key targets rest

(* Whether some resident quad of [p] satisfies [pred]. *)
let has_quad t p pred =
  List.exists (fun v -> List.exists pred !(Hashtbl.find t.quads (p, v))) (resident_versions t p)

let has_edge_to t p parent =
  has_quad t p (fun q -> match q.q_value with Pvalue.Xref x -> Pnode.equal x.pnode parent | _ -> false)

let has_name_record t p name =
  has_quad t p (fun q ->
      String.equal q.q_attr Record.Attr.name
      && match q.q_value with Pvalue.Str s -> String.equal s name | _ -> false)

let expire_node t targets n c resident =
  let p = n.pnode in
  let dropped = ref [] in
  let rec drop = function
    | v :: rest when v < c ->
        let key = (p, v) in
        let quads = !(Hashtbl.find t.quads key) in
        Hashtbl.remove t.quads key;
        Hashtbl.remove t.fwd key;
        unindex_quads t key targets quads;
        dropped := quads :: !dropped;
        drop rest
    | rest -> rest
  in
  (match drop !resident with [] -> Hashtbl.remove t.resident p | rest -> resident := rest);
  (* a pnode adjacency pair or a name alias goes when no kept version
     still supports it *)
  List.iter
    (List.iter (fun (q : quad) ->
         match q.q_value with
         | Pvalue.Xref x ->
             if Hashtbl.mem t.adj_seen (p, x.pnode) && not (has_edge_to t p x.pnode) then
               remove_pair t p x.pnode
         | Pvalue.Str s when String.equal q.q_attr Record.Attr.name ->
             if not (Option.equal String.equal n.node_name (Some s) || has_name_record t p s) then
               remove_alias t s p
         | _ -> ()))
    !dropped

let expire t ~keep =
  let targets : (Pnode.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let file_names = ref 0 in
  Hashtbl.iter
    (fun p n ->
      let c = cutoff ~keep n in
      set_floor t n c;
      (match Hashtbl.find_opt t.resident p with
      | Some ({ contents = v :: _ } as resident) when v < c -> expire_node t targets n c resident
      | _ -> ());
      match (n.kind, n.node_name) with
      | File, Some "" ->
          (* as in the image: a file named "" takes its first kept NAME
             record, uncharged (a file's name is charged when set_file
             declares it, and here that name was empty) *)
          n.node_name <- first_name t n ~lo:c ~hi:n.max_version
      | File, Some s -> file_names := !file_names + String.length s
      | _ -> ())
    t.nodes;
  List.iter
    (fun (name, p) ->
      let n = Hashtbl.find t.nodes p in
      if not (Option.equal String.equal n.node_name (Some name) || has_name_record t p name) then
        remove_alias t name p)
    t.renamed;
  t.renamed <- [];
  (* a reverse edge is stale exactly when its source version fell below
     the source's new floor *)
  Hashtbl.iter
    (fun target () ->
      match Hashtbl.find_opt t.rev target with
      | Some l -> (
          match
            List.filter (fun (src, srcv, _, _) -> srcv >= (Hashtbl.find t.nodes src).floor) !l
          with
          | [] -> Hashtbl.remove t.rev target
          | rest -> l := rest)
      | None -> ())
    targets;
  t.db_bytes <- (24 * Hashtbl.length t.nodes) + !file_names + t.quad_bytes;
  t.cold_loaded <- false

(* --- integrity ----------------------------------------------------------- *)

(* Acyclicity at (pnode, version) granularity — DESIGN.md invariant 1. *)
let is_acyclic t =
  let color : (Pnode.t * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rec dfs key =
    match Hashtbl.find_opt color key with
    | Some 1 -> false
    | Some _ -> true
    | None ->
        Hashtbl.replace color key 1;
        let pnode, version = key in
        let ok =
          List.for_all
            (fun (_, (x : Pvalue.xref)) -> dfs (x.pnode, x.version))
            (out_edges t pnode ~version)
        in
        Hashtbl.replace color key 2;
        ok
  in
  Hashtbl.fold (fun key _ acc -> acc && dfs key) t.fwd true

(* Transitive ancestor closure of (pnode, version): every (pnode, version)
   reachable over ancestry edges, *including* earlier versions linked by
   freeze records.  This is what `input*` ultimately walks. *)
let ancestors t pnode ~version =
  let seen = Hashtbl.create 64 in
  let rec go key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let p, v = key in
      List.iter (fun (_, (x : Pvalue.xref)) -> go (x.pnode, x.version)) (out_edges t p ~version:v)
    end
  in
  go (pnode, version);
  Hashtbl.remove seen (pnode, version);
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* --- index self-check ------------------------------------------------------ *)

(* Rebuild-and-compare: round-trip [t] through its on-disk form (which
   reconstructs every secondary index from the quad store alone) and
   diff each index against the live one.  Any drift in the incremental
   maintenance — a missed posting, a stale adjacency row, a resident
   version that leaked — shows up as a mismatch.  The chaos harness runs
   this after crash/recover and after archive fault-in. *)
let verify_indexes t =
  (* settle the archive first: probing indexes below would otherwise
     fault it in while we iterate over the very tables it repopulates *)
  if t.floored > 0 then maybe_fault_in t;
  let sorted_versions l = List.sort_uniq Int.compare l in
  let eq_pnodes = List.equal Pnode.equal in
  let eq_ints = List.equal Int.equal in
  let describe p = string_of_int (Pnode.to_int p) in
  match deserialize (serialize t) with
  | exception Wire.Corrupt msg -> Error ("round-trip rejected: " ^ msg)
  | r ->
      let problem = ref None in
      let fail msg = if !problem = None then problem := Some msg in
      if node_count t <> node_count r then
        fail
          (Printf.sprintf "node count %d (live) vs %d (rebuilt)" (node_count t) (node_count r));
      Hashtbl.iter
        (fun p (n : node) ->
          match find_node r p with
          | None -> fail ("node " ^ describe p ^ " missing after rebuild")
          | Some m ->
              if not (Option.equal String.equal n.node_name m.node_name) then
                fail ("node " ^ describe p ^ ": name index source drifted");
              if n.max_version <> m.max_version || n.floor <> m.floor then
                fail ("node " ^ describe p ^ ": version-range index drifted");
              if
                not
                  (eq_ints
                     (sorted_versions (resident_versions t p))
                     (sorted_versions (resident_versions r p)))
              then fail ("node " ^ describe p ^ ": resident-version index drifted");
              if
                not
                  (eq_pnodes
                     (List.sort Pnode.compare (parents_of t p))
                     (List.sort Pnode.compare (parents_of r p)))
              then fail ("node " ^ describe p ^ ": ancestry adjacency (parents) drifted");
              if
                not
                  (eq_pnodes
                     (List.sort Pnode.compare (children_of t p))
                     (List.sort Pnode.compare (children_of r p)))
              then fail ("node " ^ describe p ^ ": ancestry adjacency (children) drifted"))
        t.nodes;
      if Hashtbl.length t.names <> Hashtbl.length r.names then
        fail "name index: alias count drifted";
      Hashtbl.iter
        (fun name _ ->
          if not (eq_pnodes (find_by_name t name) (find_by_name r name)) then
            fail ("name index: entries for \"" ^ name ^ "\" drifted"))
        t.names;
      if Hashtbl.length t.attrs <> Hashtbl.length r.attrs then
        fail "attr index: attribute count drifted";
      Hashtbl.iter
        (fun attr _ ->
          if attr_cardinality t attr <> attr_cardinality r attr then
            fail ("attr index: cardinality of " ^ attr ^ " drifted")
          else if not (List.equal (fun a b -> compare_pv a b = 0) (with_attr t attr) (with_attr r attr))
          then fail ("attr index: postings for " ^ attr ^ " drifted"))
        t.attrs;
      if t.edge_count <> r.edge_count then fail "edge count drifted";
      if t.file_count <> r.file_count then fail "file count drifted";
      (match !problem with Some msg -> Error msg | None -> Ok ())
