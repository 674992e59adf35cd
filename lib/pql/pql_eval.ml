(* PQL evaluator over the Waldo provenance database.

   The data model is Lore's OEM flavour: a graph of objects, some holding
   values and some holding named linkages.  Here objects are (pnode,
   version) pairs in the Provdb and linkages are provenance records; a
   record with a cross-reference value is a graph edge, a record with a
   plain value is a leaf.

   Evaluation is by environments: the FROM clause is a series of bindings,
   each extending the current environment with one binding of its
   variable to an endpoint of its path.  WHERE filters each complete
   environment; the SELECT clause projects (or aggregates) the survivors.

   Cold-tier transparency: every graph access below goes through the
   Provdb accessors (records_at / out_edges / in_edges / attr_values),
   which fault archived history in on demand when a query dips below a
   node's compaction floor (DESIGN §13).  The evaluator therefore needs
   no archive awareness of its own — an ancestry walk that crosses the
   archive boundary sees the same graph as one over a never-compacted
   database. *)

open Pql_ast
module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type item = Node of Pnode.t * int | Value of Pvalue.t

let item_equal a b =
  match (a, b) with
  | Node (p, v), Node (p', v') -> Pnode.equal p p' && v = v'
  | Value x, Value y -> Pvalue.equal x y
  | (Node _ | Value _), _ -> false

type env = (string * item) list

(* --- pseudo-attributes every node answers --------------------------------- *)

let node_pseudo db p v = function
  | "name" -> (
      match Provdb.name_of db p with Some n -> [ Pvalue.Str n ] | None -> [])
  | "version" -> [ Pvalue.Int v ]
  | "pnode" -> [ Pvalue.Int (Pnode.to_int p) ]
  | _ -> []

(* [attr_is upper name] is [String.uppercase_ascii name = upper],
   compared in place rather than on an upper-cased copy of [name] *)
let rec attr_is_from upper name i =
  i = String.length upper
  || Char.equal (Char.uppercase_ascii name.[i]) upper.[i] && attr_is_from upper name (i + 1)

let attr_is upper name = String.length name = String.length upper && attr_is_from upper name 0

let attr_values db p _v attr =
  (* attribute lookup searches every version of the object: identity
     records (NAME, TYPE, ARGV …) are written once, not per version *)
  let upper = String.uppercase_ascii attr in
  let from_records =
    List.filter_map
      (fun (q : Provdb.quad) -> if attr_is upper q.q_attr then Some q.q_value else None)
      (Provdb.records_all db p)
  in
  match (from_records, node_pseudo db p _v attr) with
  | [], pseudo -> pseudo
  | records, _ -> records

(* --- path step semantics --------------------------------------------------- *)

let forward_step db attr = function
  | Value _ -> []
  | Node (p, v) ->
      let upper = String.uppercase_ascii attr in
      List.filter_map
        (fun (q : Provdb.quad) ->
          if attr_is upper q.q_attr then
            match q.q_value with
            | Pvalue.Xref x -> Some (Node (x.pnode, x.version))
            | other -> Some (Value other)
          else None)
        (Provdb.records_at db p ~version:v)

let inverse_step db attr = function
  | Value _ -> []
  | Node (p, _v) ->
      (* inverse traversal is pnode-granular: "who refers to any version of
         this object" is what descendant queries mean in practice *)
      let upper = String.uppercase_ascii attr in
      List.filter_map
        (fun (src, srcv, a, _dstv) ->
          if attr_is upper a then Some (Node (src, srcv)) else None)
        (Provdb.in_edges db p)

let any_step db = function
  | Value _ -> []
  | Node (p, v) ->
      List.map
        (fun (_, (x : Pvalue.xref)) -> Node (x.pnode, x.version))
        (Provdb.out_edges db p ~version:v)

let dedup items =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun it ->
      let key = match it with Node (p, v) -> `N (Pnode.to_int p, v) | Value v -> `V v in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    items

let rec eval_path db path items =
  match path with
  | Edge (Forward a) -> dedup (List.concat_map (forward_step db a) items)
  | Edge (Inverse a) -> dedup (List.concat_map (inverse_step db a) items)
  | Edge Any_edge -> dedup (List.concat_map (any_step db) items)
  | Seq (a, b) -> eval_path db b (eval_path db a items)
  | Alt (a, b) -> dedup (eval_path db a items @ eval_path db b items)
  | Opt p -> dedup (items @ eval_path db p items)
  | Plus p -> closure db p (eval_path db p items) []
  | Star p -> closure db p items []

(* reflexive-transitive closure by breadth-first saturation *)
and closure db p frontier acc =
  let seen = Hashtbl.create 256 in
  let key = function Node (pn, v) -> `N (Pnode.to_int pn, v) | Value v -> `V v in
  List.iter (fun it -> Hashtbl.replace seen (key it) it) acc;
  let rec loop frontier =
    let fresh =
      List.filter
        (fun it ->
          if Hashtbl.mem seen (key it) then false
          else begin
            Hashtbl.replace seen (key it) it;
            true
          end)
        frontier
    in
    if fresh <> [] then loop (eval_path db p fresh)
  in
  loop frontier;
  Hashtbl.fold (fun _ it l -> it :: l) seen []

(* --- roots ----------------------------------------------------------------- *)

let is_process db p =
  List.exists
    (fun (q : Provdb.quad) ->
      String.equal q.q_attr "TYPE" && q.q_value = Pvalue.Str "PROCESS")
    (Provdb.records_all db p)

let root_items db env = function
  | Root_files ->
      List.filter_map
        (fun (n : Provdb.node) ->
          if n.kind = Provdb.File then Some (Node (n.pnode, n.max_version)) else None)
        (Provdb.all_nodes db)
  | Root_processes ->
      List.filter_map
        (fun (n : Provdb.node) ->
          if is_process db n.pnode then Some (Node (n.pnode, n.max_version)) else None)
        (Provdb.all_nodes db)
  | Root_objects ->
      List.map (fun (n : Provdb.node) -> Node (n.pnode, n.max_version)) (Provdb.all_nodes db)
  | Root_var v -> (
      match List.assoc_opt v env with
      | Some it -> [ it ]
      | None -> fail "unbound variable %s" v)

(* --- expressions ------------------------------------------------------------ *)

(* an expression evaluates to a list of candidate values/items
   (attribute access is set-valued in OEM) *)
let eval_expr db env = function
  | Var v -> (
      match List.assoc_opt v env with
      | Some it -> [ it ]
      | None -> fail "unbound variable %s" v)
  | Attr (v, attr) -> (
      match List.assoc_opt v env with
      | Some (Node (p, ver)) -> List.map (fun x -> Value x) (attr_values db p ver attr)
      | Some (Value _) -> []
      | None -> fail "unbound variable %s" v)
  | Lit (L_str s) -> [ Value (Pvalue.Str s) ]
  | Lit (L_int i) -> [ Value (Pvalue.Int i) ]
  | Lit (L_bool b) -> [ Value (Pvalue.Bool b) ]

(* glob matching for ~ : '*' any sequence, '?' one char *)
let glob_match pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pattern.[i] with
      | '*' -> go (i + 1) j || (j < ns && go i (j + 1))
      | '?' -> j < ns && go (i + 1) (j + 1)
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let compare_values op (a : item) (b : item) =
  let num = function
    | Value (Pvalue.Int i) -> Some i
    | Node _ | Value _ -> None
  in
  let str = function
    | Value (Pvalue.Str s) -> Some s
    | Value (Pvalue.Bytes s) -> Some s
    | Node _ | Value _ -> None
  in
  match op with
  | Eq -> item_equal a b
  | Neq -> not (item_equal a b)
  | Like -> (
      match (str a, str b) with Some s, Some p -> glob_match p s | _ -> false)
  | Lt | Le | Gt | Ge -> (
      let cmp c = match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0 | _ -> false in
      match (num a, num b) with
      | Some x, Some y -> cmp (Int.compare x y)
      | _ -> (
          match (str a, str b) with
          | Some x, Some y -> cmp (String.compare x y)
          | _ -> false))

(* --- projection ------------------------------------------------------------ *)

(* Turn the surviving environments into result rows: aggregation or the
   per-environment cartesian product of set-valued outputs, set-semantics
   row dedup, then ordering.  Shared verbatim by the cost-based executor
   (Pql_exec) so planner and oracle can only disagree about which
   environments they build, never about how rows are produced. *)
let project db (q : query) envs =
  let has_agg = List.exists (function O_agg _ -> true | O_expr _ -> false) q.select in
  if has_agg then
    [
      List.map
        (fun out ->
          match out with
          | O_expr e -> (
              (* non-aggregated output alongside an aggregate: take any *)
              match List.concat_map (fun env -> eval_expr db env e) envs with
              | it :: _ -> it
              | [] -> Value (Pvalue.Str ""))
          | O_agg (agg, e) ->
              let values =
                dedup (List.concat_map (fun env -> eval_expr db env e) envs)
              in
              let ints =
                List.filter_map
                  (function Value (Pvalue.Int i) -> Some i | _ -> None)
                  values
              in
              let v =
                match agg with
                | Count -> Pvalue.Int (List.length values)
                | Sum -> Pvalue.Int (List.fold_left ( + ) 0 ints)
                | Min -> (
                    match ints with
                    | [] -> Pvalue.Int 0
                    | _ -> Pvalue.Int (List.fold_left min max_int ints))
                | Max -> (
                    match ints with
                    | [] -> Pvalue.Int 0
                    | _ -> Pvalue.Int (List.fold_left max min_int ints))
                | Avg -> (
                    match ints with
                    | [] -> Pvalue.Int 0
                    | _ ->
                        Pvalue.Int (List.fold_left ( + ) 0 ints / List.length ints))
              in
              Value v)
        q.select;
    ]
  else
    let keyed_rows =
      List.concat_map
        (fun env ->
          (* a row per combination of set-valued outputs would explode;
             like Lorel we take the cartesian product per environment *)
          let order_key =
            match q.order with
            | Some (e, _) -> (match eval_expr db env e with k :: _ -> Some k | [] -> None)
            | None -> None
          in
          let cols = List.map (fun (O_expr e | O_agg (_, e)) -> eval_expr db env e) q.select in
          let rec cartesian = function
            | [] -> [ [] ]
            | col :: rest ->
                let tails = cartesian rest in
                List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) col
          in
          List.map (fun row -> (order_key, row)) (cartesian cols))
        envs
    in
    (* set semantics: drop duplicate rows *)
    let seen = Hashtbl.create 64 in
    let keyed_rows =
      List.filter
        (fun (_, row) ->
          let key =
            List.map
              (function Node (p, v) -> `N (Pnode.to_int p, v) | Value v -> `V v)
              row
          in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        keyed_rows
    in
    (* ordering: integers and strings by value, nodes by rendered name,
       mixed kinds by a fixed rank; stable for ties *)
    let keyed_rows =
      match q.order with
      | None -> keyed_rows
      | Some (_, descending) ->
          let rank = function
            | None -> 0
            | Some (Value (Pvalue.Bool _)) -> 1
            | Some (Value (Pvalue.Int _)) -> 2
            | Some (Value (Pvalue.Str _)) | Some (Value (Pvalue.Bytes _)) -> 3
            | Some (Value _) -> 4
            | Some (Node _) -> 5
          in
          let key_repr = function
            | Some (Value (Pvalue.Bool b)) -> `I (Bool.to_int b)
            | Some (Value (Pvalue.Int i)) -> `I i
            | Some (Value (Pvalue.Str s)) | Some (Value (Pvalue.Bytes s)) -> `S s
            | Some (Node (p, _)) ->
                `S (Option.value (Provdb.name_of db p)
                      ~default:(string_of_int (Pnode.to_int p)))
            | _ -> `I 0
          in
          let cmp_repr r r' =
            (* equal ranks imply same constructor; the cross-kind arms
               only keep the comparator total *)
            match (r, r') with
            | `I a, `I b -> Int.compare a b
            | `S a, `S b -> String.compare a b
            | `I _, `S _ -> -1
            | `S _, `I _ -> 1
          in
          let cmp (ka, _) (kb, _) =
            let c = Int.compare (rank ka) (rank kb) in
            let c = if c <> 0 then c else cmp_repr (key_repr ka) (key_repr kb) in
            if descending then -c else c
          in
          List.stable_sort cmp keyed_rows
    in
    List.map snd keyed_rows

(* --- conditions (mutually recursive with query evaluation for subqueries) -- *)

let rec eval_cond db env = function
  | And (a, b) -> eval_cond db env a && eval_cond db env b
  | Or (a, b) -> eval_cond db env a || eval_cond db env b
  | Not c -> not (eval_cond db env c)
  | Cmp (l, op, r) ->
      (* existential semantics over set-valued expressions *)
      let ls = eval_expr db env l and rs = eval_expr db env r in
      List.exists (fun a -> List.exists (fun b -> compare_values op a b) rs) ls
  | Exists q -> eval_rows db env q <> []
  | In_query (e, q) ->
      let vals = eval_expr db env e in
      let rows = eval_rows db env q in
      List.exists
        (fun row -> match row with [ it ] -> List.exists (item_equal it) vals | _ -> false)
        rows

(* Depth-first nested loop: each binding extends the current environment
   one endpoint at a time, and WHERE judges each complete environment as
   soon as it exists, so the FROM product is never held.  Environments
   come out in lexicographic binding order, and an unbound root variable
   fails on the first environment to reach its binding, before any WHERE
   runs. *)
and eval_envs db outer (q : query) =
  let keep env acc =
    match q.where with
    | Some cond when not (eval_cond db env cond) -> acc
    | Some _ | None -> env :: acc
  in
  let rec bind froms env acc =
    match froms with
    | [] -> keep env acc
    | (src : source) :: rest ->
        let start = root_items db env src.root in
        let endpoints = match src.path with None -> start | Some p -> eval_path db p start in
        List.fold_left (fun acc it -> bind rest ((src.binder, it) :: env) acc) acc endpoints
  in
  List.rev (bind q.froms outer [])

and eval_rows db outer (q : query) = project db q (eval_envs db outer q)

let truncate n l =
  let rec go k = function [] -> [] | x :: rest -> if k = 0 then [] else x :: go (k - 1) rest in
  go n l

let apply_limit (q : query) rows =
  match q.limit with Some n -> truncate (max 0 n) rows | None -> rows

(* The whole naive pipeline: the reference oracle the cost-based planner
   is checked against.  A depth-first nested loop that filters each
   complete environment as it is built, so it holds only the survivors;
   still O(graph) per binding — every class root enumerates the full node
   table and dependent paths are re-walked per environment, with no
   pushdown, memo or index — which is exactly why execution goes through
   Pql_exec; this stays as the semantics definition. *)
let reference_rows db q = apply_limit q (eval_rows db [] q)
