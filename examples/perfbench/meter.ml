(* Host-clock measurement: per-op samples, allocation counts and the
   benchmark's own span recorder.

   The recorder keeps spans in memory (growable int arrays) and is
   written out once, when the benchmark ends.  Each span carries its
   parent, so a span tree hangs off every workload op; a layer's self
   time is its duration minus the time its child spans cover.  With
   tracing off, [span] only calls its argument. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* minor + major - promoted: every word the program allocated *)
let words_of (s : Gc.stat) = int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
let words () = words_of (Gc.quick_stat ())

(* --- growable int buffers ---------------------------------------------------- *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)
  let to_array b = Array.sub b.a 0 b.n
  let sum b = Array.fold_left ( + ) 0 (to_array b)
  let append dst src = for i = 0 to src.n - 1 do push dst src.a.(i) done
end

(* Nearest-rank percentile of [q] in [0, 1]; nan when empty. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Int.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    float_of_int s.(max 0 (min (n - 1) (rank - 1)))
  end

let median_f a =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

(* --- span recorder ------------------------------------------------------------- *)

type t = {
  tracing : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  (* one entry per closed span *)
  sp_id : Ibuf.t;
  sp_parent : Ibuf.t;  (** 0 for a root (op) span *)
  sp_root : Ibuf.t;  (** id of the op span this span belongs to *)
  sp_name : Ibuf.t;
  sp_start : Ibuf.t;
  sp_dur : Ibuf.t;
  sp_words : Ibuf.t;
  mutable next_id : int;
  mutable cur : int;
  mutable cur_root : int;
  mutable overhead_words : int;  (** words one empty traced span costs *)
}

let create ~tracing =
  {
    tracing;
    names = Hashtbl.create 32;
    name_of = [||];
    sp_id = Ibuf.create ();
    sp_parent = Ibuf.create ();
    sp_root = Ibuf.create ();
    sp_name = Ibuf.create ();
    sp_start = Ibuf.create ();
    sp_dur = Ibuf.create ();
    sp_words = Ibuf.create ();
    next_id = 1;
    cur = 0;
    cur_root = 0;
    overhead_words = 0;
  }

let intern m name =
  match Hashtbl.find_opt m.names name with
  | Some i -> i
  | None ->
      let i = Array.length m.name_of in
      Hashtbl.add m.names name i;
      m.name_of <- Array.append m.name_of [| name |];
      i

let record m ~id ~parent ~name ~t0 ~t1 ~w =
  Ibuf.push m.sp_id id;
  Ibuf.push m.sp_parent parent;
  Ibuf.push m.sp_root (if parent = 0 then id else m.cur_root);
  Ibuf.push m.sp_name name;
  Ibuf.push m.sp_start t0;
  Ibuf.push m.sp_dur (t1 - t0);
  Ibuf.push m.sp_words w

(* [span m name f] runs [f ()]; when tracing, records it as a child of
   the innermost open span (or as a new op root when none is open). *)
let span m name f =
  if not m.tracing then f ()
  else begin
    let id = m.next_id and parent = m.cur and name = intern m name in
    m.next_id <- id + 1;
    m.cur <- id;
    if parent = 0 then m.cur_root <- id;
    let w0 = words () in
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      let w = words () - w0 - m.overhead_words in
      m.cur <- parent;
      record m ~id ~parent ~name ~t0 ~t1 ~w
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Measure what an empty span allocates, so per-call word counts report
   the layer's allocation alone.  Recorded spans are discarded. *)
let calibrate m =
  if m.tracing then begin
    let samples = Array.init 16 (fun _ ->
        let n = Ibuf.length m.sp_words in
        span m "calibrate" (fun () -> ());
        Ibuf.get m.sp_words n)
    in
    m.overhead_words <- int_of_float (median_f (Array.map float_of_int samples));
    List.iter (fun b -> b.Ibuf.n <- 0)
      [ m.sp_id; m.sp_parent; m.sp_root; m.sp_name; m.sp_start; m.sp_dur; m.sp_words ];
    m.next_id <- 1
  end

let spans m = Ibuf.length m.sp_id

(* Durations (ns) and words of every span named [name]. *)
let by_name m name =
  match Hashtbl.find_opt m.names name with
  | None -> ([||], [||])
  | Some k ->
      let d = Ibuf.create () and w = Ibuf.create () in
      for i = 0 to spans m - 1 do
        if Ibuf.get m.sp_name i = k then begin
          Ibuf.push d (Ibuf.get m.sp_dur i);
          Ibuf.push w (Ibuf.get m.sp_words i)
        end
      done;
      (Ibuf.to_array d, Ibuf.to_array w)

(* Self time of every span: its duration minus its children's. *)
let self_times m =
  let n = spans m in
  let index = Hashtbl.create n in
  for i = 0 to n - 1 do Hashtbl.replace index (Ibuf.get m.sp_id i) i done;
  let self = Array.init n (fun i -> Ibuf.get m.sp_dur i) in
  for i = 0 to n - 1 do
    let p = Ibuf.get m.sp_parent i in
    if p <> 0 then
      match Hashtbl.find_opt index p with
      | Some j -> self.(j) <- self.(j) - Ibuf.get m.sp_dur i
      | None -> ()
  done;
  (index, self)

(* The check the traced run gates on: in every op's span tree, every
   parent is recorded in the same tree, children lie inside their
   parent's interval, and the self times sum to the op's duration. *)
let check_trees m =
  let index, self = self_times m in
  let n = spans m in
  let sums = Hashtbl.create 1024 in
  let ok = ref true in
  for i = 0 to n - 1 do
    let root = Ibuf.get m.sp_root i and p = Ibuf.get m.sp_parent i in
    (if p <> 0 then
       match Hashtbl.find_opt index p with
       | None -> ok := false
       | Some j ->
           let s = Ibuf.get m.sp_start i and ps = Ibuf.get m.sp_start j in
           if Ibuf.get m.sp_root j <> root
              || s < ps
              || s + Ibuf.get m.sp_dur i > ps + Ibuf.get m.sp_dur j
           then ok := false);
    Hashtbl.replace sums root
      (self.(i) + Option.value ~default:0 (Hashtbl.find_opt sums root))
  done;
  Hashtbl.iter
    (fun root sum ->
      match Hashtbl.find_opt index root with
      | Some j when Ibuf.get m.sp_dur j = sum -> ()
      | _ -> ok := false)
    sums;
  !ok

(* Self time summed per span name, for the written trace summary. *)
let self_by_name m =
  let _, self = self_times m in
  let acc = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let k = m.name_of.(Ibuf.get m.sp_name i) in
      Hashtbl.replace acc k (s + Option.value ~default:0 (Hashtbl.find_opt acc k)))
    self;
  List.sort (fun (a, _) (b, _) -> String.compare a b) (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* Write every span as one tab-separated line:
   id parent root name start_ns dur_ns self_ns words. *)
let write m path =
  let _, self = self_times m in
  let oc = open_out path in
  output_string oc "id\tparent\troot\tname\tstart_ns\tdur_ns\tself_ns\twords\n";
  for i = 0 to spans m - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n" (Ibuf.get m.sp_id i)
      (Ibuf.get m.sp_parent i) (Ibuf.get m.sp_root i)
      m.name_of.(Ibuf.get m.sp_name i)
      (Ibuf.get m.sp_start i) (Ibuf.get m.sp_dur i) self.(i) (Ibuf.get m.sp_words i)
  done;
  close_out oc
