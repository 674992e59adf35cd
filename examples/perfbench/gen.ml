(* Seeded op-stream generators for the three benchmark workloads.

   Everything here is pure: a seed and a parameter record give the same
   op stream on every run and every OCaml version, and the system under
   test receives only these generated operations.  Sizes are bounded so
   the cost of one op does not drift with run length. *)

(* splitmix-style generator on native 63-bit ints *)
type rng = { mutable s : int }

let rng seed = { s = (seed * 0x2545F4914F6CDD1D) lxor 0x1E3779B97F4A7C15 }

let next r =
  r.s <- r.s + 0x1E3779B97F4A7C15;
  let z = r.s in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let int r bound = if bound <= 1 then 0 else next r mod bound
let range r lo hi = lo + int r (hi - lo + 1)

(* File contents are windows of one fixed 64 KiB pattern: a payload is
   named by (seed, length) and byte [k] of it is [pattern.[(seed + k) land
   0xffff]].  The doubled copy lets any 4 KiB chunk be one [String.sub]. *)
let pattern_len = 65536

let pattern =
  let r = rng 0x5eed in
  let half = String.init pattern_len (fun _ -> Char.chr (int r 256)) in
  half ^ half

let chunk = 4096

(* [payload_chunk ~seed ~off n]: bytes [off, off+n) of payload [seed]
   ([n <= chunk]). *)
let payload_chunk ~seed ~off n = String.sub pattern ((seed + off) land (pattern_len - 1)) n

let payload ~seed ~len = String.init len (fun k -> pattern.[(seed + k) land (pattern_len - 1)])

(* Whether [s] equals the concatenation of the payload segments
   [(seed, len)] in order. *)
let matches_segments s segs =
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 segs in
  String.length s = total
  &&
  let pos = ref 0 and ok = ref true in
  List.iter
    (fun (seed, len) ->
      let base = !pos in
      let k = ref 0 in
      while !ok && !k < len do
        if not (Char.equal s.[base + !k] pattern.[(seed + !k) land (pattern_len - 1)]) then
          ok := false;
        incr k
      done;
      pos := base + len)
    segs;
  !ok

(* --- mail_local: a Postmark transaction mix ---------------------------------- *)

type mail_params = {
  m_files : int;  (** live pool size the create/delete churn holds *)
  m_subdirs : int;
  m_min_size : int;
  m_init_max : int;  (** created files are [m_min_size .. m_init_max] bytes *)
  m_max_size : int;  (** appends never grow a file past this *)
  m_append_min : int;
  m_append_max : int;
  m_ops : int;
}

type mail_op =
  | Create of { file : int; size : int; seed : int }
  | Delete of { file : int }
  | Read of { file : int }
  | Append of { file : int; len : int; seed : int }

type mail = {
  pool : (int * int * int) array;  (** initial files: (file, size, seed) *)
  mail_ops : mail_op array;
}

(* Postmark's 50/50 split of each transaction between the create/delete
   half and the read/append half; the churn alternates create and delete
   around the pool size, so each of the four ops is a quarter. *)
let mail_mix = [ ("create", 0.25); ("delete", 0.25); ("read", 0.25); ("append", 0.25) ]

let mail_op_kind = function
  | Create _ -> "create"
  | Delete _ -> "delete"
  | Read _ -> "read"
  | Append _ -> "append"

let gen_mail p ~seed =
  let r = rng seed in
  let cap = p.m_files + p.m_ops + 1 in
  let sizes = Array.make cap 0 and pos = Array.make cap 0 in
  let live = Array.make cap 0 and n = ref 0 and next_file = ref 0 in
  let create () =
    let f = !next_file in
    incr next_file;
    let size = range r p.m_min_size p.m_init_max and seed = int r pattern_len in
    sizes.(f) <- size;
    live.(!n) <- f;
    pos.(f) <- !n;
    incr n;
    Create { file = f; size; seed }
  in
  let pool =
    Array.init p.m_files (fun _ ->
        match create () with Create c -> (c.file, c.size, c.seed) | _ -> assert false)
  in
  let delete () =
    let i = int r !n in
    let f = live.(i) in
    decr n;
    live.(i) <- live.(!n);
    pos.(live.(i)) <- i;
    Delete { file = f }
  in
  let append () =
    let len = range r p.m_append_min p.m_append_max and seed = int r pattern_len in
    let start = int r !n in
    let rec probe k =
      if k = !n then Read { file = live.(start) }
      else
        let f = live.((start + k) mod !n) in
        if sizes.(f) + len <= p.m_max_size then begin
          sizes.(f) <- sizes.(f) + len;
          Append { file = f; len; seed }
        end
        else probe (k + 1)
    in
    probe 0
  in
  let mail_ops =
    Array.init p.m_ops (fun _ ->
        if int r 2 = 0 then if !n < p.m_files then create () else delete ()
        else if int r 2 = 0 then Read { file = live.(int r !n) }
        else append ())
  in
  { pool; mail_ops }

let mail_path p f = Printf.sprintf "/vol0/pm/s%d/f%d" (f mod p.m_subdirs) f

(* --- patch_nfs: a patch queue ------------------------------------------------- *)

type patch_params = {
  p_tree : int;  (** source files *)
  p_dirs : int;
  p_min_size : int;
  p_max_size : int;
  p_diff_min : int;
  p_diff_max : int;
  p_hunk_min : int;
  p_hunk_max : int;
  p_files_max : int;  (** files touched per patch: 1 .. this *)
  p_ops : int;
}

type hunk = { h_file : int; h_off : int; h_diff_off : int; h_len : int }

(* One [patch] process: read diff [pt_diff], then rewrite each hunk's
   file with [h_len] bytes of the diff at [h_off].  Hunks replace bytes
   in place, so the tree's size never changes. *)
type patch_op = { pt_diff : int; pt_hunks : hunk array }

type patch = {
  tree : (int * int) array;  (** initial files: (size, seed) *)
  diffs : (int * int) array;  (** diff i: (size, seed) *)
  patch_ops : patch_op array;
}

let patch_mix p = [ ("hunks_per_patch", float_of_int (1 + p.p_files_max) /. 2.) ]

let gen_patch p ~seed =
  let r = rng seed in
  let tree =
    Array.init p.p_tree (fun _ -> (range r p.p_min_size p.p_max_size, int r pattern_len))
  in
  let diffs =
    Array.init p.p_ops (fun _ -> (range r p.p_diff_min p.p_diff_max, int r pattern_len))
  in
  let patch_ops =
    Array.init p.p_ops (fun d ->
        let dsize, _ = diffs.(d) in
        let nfiles = range r 1 p.p_files_max in
        (* distinct files per patch, like a real diff *)
        let picked = Array.make nfiles (-1) in
        let pt_hunks =
          Array.init nfiles (fun i ->
              let rec pick () =
                let f = int r p.p_tree in
                if Array.exists (Int.equal f) picked then pick () else f
              in
              let f = pick () in
              picked.(i) <- f;
              let fsize, _ = tree.(f) in
              let h_len = min (range r p.p_hunk_min p.p_hunk_max) (min dsize fsize) in
              { h_file = f; h_off = int r (fsize - h_len + 1); h_diff_off = int r (dsize - h_len + 1); h_len })
        in
        { pt_diff = d; pt_hunks })
  in
  { tree; diffs; patch_ops }

let tree_name f = Printf.sprintf "src%d.c" f
let tree_path p f = Printf.sprintf "/vol0/tree/d%d/%s" (f mod p.p_dirs) (tree_name f)
let diff_path d = Printf.sprintf "/vol0/queue/p%d.diff" d

(* --- history_query: a versioned provenance graph ------------------------------ *)

type history_params = {
  h_initial : int;  (** objects disclosed during set-up *)
  h_ops : int;  (** timed steps, one new object each *)
  h_checkpoint_every : int;
  h_query_every : int;
  h_batch : int;  (** objects per BATCH attribute value *)
}

type query_kind = Selective | Attr | Scan

let query_kinds = [ Selective; Attr; Scan ]

let kind_name = function Selective -> "selective" | Attr -> "attr" | Scan -> "scan"

(* Step [s] creates object [h_initial + s] with one INPUT edge to
   [st_parent], and revises (discloses on, then freezes) the older object
   [st_revise].  Every [h_query_every] steps a query runs whose kind and
   anchor object are [st_query]. *)
type step = {
  st_parent : int;
  st_revise : int;
  st_query : (query_kind * int) option;
}

type history = { initial_parents : int array; steps : step array }

let history_mix = [ ("selective", 1. /. 3.); ("attr", 1. /. 3.); ("scan", 1. /. 3.) ]

let gen_history p ~seed =
  let r = rng seed in
  let initial_parents = Array.init p.h_initial (fun i -> if i = 0 then -1 else int r i) in
  let steps =
    Array.init p.h_ops (fun s ->
        let objects = p.h_initial + s in
        let st_query =
          if (s + 1) mod p.h_query_every = 0 then
            Some (List.nth query_kinds (int r 3), int r objects)
          else None
        in
        { st_parent = int r objects; st_revise = int r objects; st_query })
  in
  { initial_parents; steps }

let object_name i = Printf.sprintf "o%d" i

(* The three query shapes; [anchor] picks the object or value. *)
let history_query p kind anchor =
  match kind with
  | Selective ->
      Printf.sprintf {|select A from Provenance.object as O O.input* as A where O.name = "%s"|}
        (object_name anchor)
  | Attr ->
      Printf.sprintf {|select O from Provenance.object as O where O.batch = %d|} (anchor / p.h_batch)
  | Scan -> Printf.sprintf {|select O from Provenance.object as O where O.name ~ "o*%d"|} (anchor mod 10)
