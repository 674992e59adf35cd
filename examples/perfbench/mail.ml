(* mail_local: a Postmark mix on local PASSv2, replayed on plain ext3 as
   the baseline.  The live pool is several times the page cache (8 MB
   under Lasagna, 16 MB bare), so simdisk, ext3 and Lasagna's double
   buffering do the work; the PA-NFS layers and Waldo checkpointing stay
   idle. *)

open Common

let params =
  {
    Gen.m_files = 500;
    m_subdirs = 10;
    m_min_size = 4096;
    m_init_max = 131_072;
    m_max_size = 196_608;
    m_append_min = 1024;
    m_append_max = 16384;
    m_ops = 4000;
  }

let queries = 350

type machine = {
  sys : System.t;
  vol : System.volume;
  pid : int;
  segs : (int * int) list array;  (** per file: payload segments, newest first *)
  sizes : int array;
}

let setup ?(registry = Telemetry.create ()) ?tracer ?monitor p (w : Gen.mail) mode =
  let sys = System.create ~registry ?tracer ?monitor ~mode ~machine:1 ~volume_names:[ "vol0" ] () in
  let vol = Option.get (System.find_volume sys "vol0") in
  let k = System.kernel sys in
  let m = Meter.create ~tracing:false in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let cap = p.Gen.m_files + p.Gen.m_ops + 1 in
  let segs = Array.make cap [] and sizes = Array.make cap 0 in
  Array.iter
    (fun (f, size, seed) ->
      let fd = kopen m k ~pid ~path:(Gen.mail_path p f) ~create:true in
      write_payload m k ~pid ~fd ~seed ~len:size;
      kclose m k ~pid ~fd;
      segs.(f) <- [ (seed, size) ];
      sizes.(f) <- size)
    w.Gen.pool;
  { sys; vol; pid; segs; sizes }

(* One op; returns the chunks a read saw (reversed) for checking
   outside the timed window. *)
let exec m mc p op =
  let k = System.kernel mc.sys and pid = mc.pid in
  match op with
  | Gen.Create { file; size; seed } ->
      let fd = kopen m k ~pid ~path:(Gen.mail_path p file) ~create:true in
      write_payload m k ~pid ~fd ~seed ~len:size;
      kclose m k ~pid ~fd;
      []
  | Gen.Delete { file } ->
      kunlink m k ~pid ~path:(Gen.mail_path p file);
      []
  | Gen.Read { file } ->
      let fd = kopen m k ~pid ~path:(Gen.mail_path p file) ~create:false in
      let chunks = read_chunks m k ~pid ~fd in
      kclose m k ~pid ~fd;
      chunks
  | Gen.Append { file; len; seed } ->
      let fd = kopen m k ~pid ~path:(Gen.mail_path p file) ~create:false in
      kseek m k ~pid ~fd ~off:mc.sizes.(file);
      write_payload m k ~pid ~fd ~seed ~len;
      kclose m k ~pid ~fd;
      []

(* Update the model after an op; a read must equal the bytes last
   written. *)
let account mc op chunks =
  match op with
  | Gen.Create { file; size; seed } ->
      mc.segs.(file) <- [ (seed, size) ];
      mc.sizes.(file) <- size;
      (size, true)
  | Gen.Delete { file } ->
      mc.segs.(file) <- [];
      (0, true)
  | Gen.Read { file } ->
      (0, Gen.matches_segments (String.concat "" (List.rev chunks)) (List.rev mc.segs.(file)))
  | Gen.Append { file; len; seed } ->
      mc.segs.(file) <- (seed, len) :: mc.segs.(file);
      mc.sizes.(file) <- mc.sizes.(file) + len;
      (len, true)

let run_ops m r mc p (w : Gen.mail) =
  let clock = System.clock mc.sys in
  let sim_now () = Simdisk.Clock.now clock in
  Array.iter
    (fun op ->
      match run_op m r ~sim_now (fun () -> exec m mc p op) with
      | Some chunks ->
          let bytes, good = account mc op chunks in
          r.payload_bytes <- r.payload_bytes + bytes;
          if not good then r.failed <- r.failed + 1
      | None -> ())
    w.Gen.mail_ops

(* Post-run queries over the volume's provenance: ancestry of a live
   file, the processes by PID, and a name glob. *)
let run_queries m r ~seed mc ~check =
  let live = ref [] in
  Array.iteri (fun f s -> match s with [] -> () | _ -> live := f :: !live) mc.segs;
  let live = Array.of_list !live in
  let q = Gen.rng (seed + 7) in
  post_run_queries m r ~n:queries ~check
    (Option.get (System.waldo_db mc.sys "vol0"))
    (function
      | Gen.Selective ->
          Printf.sprintf {|select A from Provenance.file as F F.input* as A where F.name = "f%d"|}
            live.(Gen.int q (Array.length live))
      | Gen.Attr -> Printf.sprintf {|select P from Provenance.process as P where P.pid = %d|} mc.pid
      | Gen.Scan -> Printf.sprintf {|select F from Provenance.file as F where F.name ~ "f*%d"|} (Gen.int q 10))

let round ?(p = params) m ~seed ~check ?tracer ?monitor () =
  let w = Gen.gen_mail p ~seed in
  let registry = Telemetry.create () in
  let t0 = Meter.now_ns () in
  let mc = setup ~registry ?tracer ?monitor p w System.Pass in
  let r = new_round ~setup_ns:(Meter.now_ns () - t0) in
  let clock = System.clock mc.sys in
  let k = System.kernel mc.sys in
  let ext3 = mc.vol.System.v_ext3 and disk = mc.vol.System.v_disk in
  let c0 = snapshot registry and d0 = Simdisk.Disk.stats disk and e0 = ext3_snapshot ext3 in
  let calls0 = Kernel.syscall_count k in
  let s0 = Simdisk.Clock.now clock and h0 = Meter.now_ns () in
  run_ops m r mc p w;
  let _ : int = Meter.span m "waldo.drain" (fun () -> System.drain mc.sys) in
  r.pass_sim_ns <- Simdisk.Clock.now clock - s0;
  r.pass_host_ns <- Meter.now_ns () - h0;
  let d1 = Simdisk.Disk.stats disk in
  r.disk_bytes <- d1.Simdisk.Disk.bytes_written - d0.Simdisk.Disk.bytes_written;
  let calls = Kernel.syscall_count k - calls0 in
  let space = System.space mc.sys in
  r.prov_bytes <- space.System.sp_db_bytes + space.System.sp_index_bytes;
  let counts = delta c0 (snapshot registry) @ disk_counts d0 d1 @ ext3_counts ext3 e0 in
  let rows, examined = run_queries m r ~seed mc ~check in
  let _, info = crash_and_recover m r ~clock disk in
  let db = Option.get (System.waldo_db mc.sys "vol0") in
  r.counts <-
    counts
    @ [
        ("kernel.calls", float_of_int calls);
        ("pql.rows", float_of_int rows);
        ("pql.examined", float_of_int examined);
        ("waldo.replay_frames", float_of_int info.Waldo.ri_frames_replayed);
        ("waldo.archives", float_of_int info.Waldo.ri_archives);
        ("waldo.db_bytes", float_of_int (Provdb.db_bytes db));
        ("waldo.index_bytes", float_of_int (Provdb.index_bytes db));
      ];
  r

let baseline ?(p = params) ~seed () =
  let w = Gen.gen_mail p ~seed in
  let m = Meter.create ~tracing:false in
  let mc = setup p w System.Vanilla in
  let r = new_round ~setup_ns:0 in
  let clock = System.clock mc.sys in
  let s0 = Simdisk.Clock.now clock and h0 = Meter.now_ns () in
  run_ops m r mc p w;
  {
    base_sim_ns = Simdisk.Clock.now clock - s0;
    base_host_ns = Meter.now_ns () - h0;
    data_bytes = (System.space mc.sys).System.sp_data_bytes;
    base_failed = r.failed;
  }
