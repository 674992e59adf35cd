(* patch_nfs: a patch queue applied over PA-NFS, replayed on plain NFS as
   the baseline.  Each op is one [patch] process: fork/exec, read the
   diff, then per file read it, write a temporary and rename it over the
   original, then exit.  The source tree fits in the server's page cache,
   so the work falls on the provenance path (observer, analyzer,
   distributor, the PA-NFS client and server, piggybacked RPCs and the
   duplicate-request cache), not on bulk data copying. *)

open Common

let params =
  {
    Gen.p_tree = 600;
    p_dirs = 12;
    p_min_size = 2048;
    p_max_size = 8192;
    p_diff_min = 1024;
    p_diff_max = 2048;
    p_hunk_min = 64;
    p_hunk_max = 512;
    p_files_max = 3;
    p_ops = 1000;
  }

let queries = 350

type wire = {
  mutable rpcs : int;  (** Server.handle calls *)
  mutable calls : int;  (** operations inside them (batched writes count each) *)
}

type machine = {
  sys : System.t;
  server : Server.t;
  client : Client.t;
  wire : wire;
  pids : Ibuf.t;  (** the patch processes, for PID queries *)
}

(* The client machine and the server share one clock, as in
   [Runner.nfs_system]; the server's handler is wrapped so each RPC is a
   span and piggybacked writes are counted. *)
let machine ?(registry = Telemetry.create ()) ?tracer ?monitor m mode =
  let sys =
    System.create ~registry ?tracer ?monitor ~mode ~machine:1
      ~volume_names:(match mode with System.Pass -> [ "scratch" ] | System.Vanilla -> [])
      ()
  in
  let clock = System.clock sys in
  let server_mode = match mode with System.Pass -> Server.Pass_enabled | System.Vanilla -> Server.Plain in
  let server = Server.create ~registry ?tracer ~mode:server_mode ~clock ~machine:2 ~volume:"vol0" () in
  let net = Proto.net clock in
  let wire = { rpcs = 0; calls = 0 } in
  let client =
    Client.create ~registry ?tracer ~net
      ~handler:(fun call ->
        wire.rpcs <- wire.rpcs + 1;
        (wire.calls <-
           wire.calls
           + match call.Proto.c_req with Proto.Op_passbatch { writes } -> List.length writes | _ -> 1);
        Meter.span m "nfs.server" (fun () -> Server.handle server call))
      ~ctx:(Kernel.ctx (System.kernel sys))
      ~mount_name:"vol0" ()
  in
  (match mode with
  | System.Pass ->
      System.mount_external sys ~name:"vol0" ~ops:(Client.ops client) ~endpoint:(Client.endpoint client)
        ~file_handle:(Client.file_handle client)
        ~flush:(fun () -> Client.flush client)
        ()
  | System.Vanilla -> System.mount_external sys ~name:"vol0" ~ops:(Client.ops client) ());
  { sys; server; client; wire; pids = Ibuf.create () }

let setup ?registry ?tracer ?monitor m p (w : Gen.patch) mode =
  let mc = machine ?registry ?tracer ?monitor m mode in
  let k = System.kernel mc.sys in
  let q = Meter.create ~tracing:false in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let put path ~seed ~len =
    let fd = kopen q k ~pid ~path ~create:true in
    write_payload q k ~pid ~fd ~seed ~len;
    kclose q k ~pid ~fd
  in
  Array.iteri (fun f (size, seed) -> put (Gen.tree_path p f) ~seed ~len:size) w.Gen.tree;
  Array.iteri (fun d (size, seed) -> put (Gen.diff_path d) ~seed ~len:size) w.Gen.diffs;
  put "/vol0/bin/patch" ~seed:77 ~len:15000;
  kexit q k ~pid;
  ignore (System.drain mc.sys : int);
  ignore (Server.drain mc.server : int);
  mc

(* Simulated cost of merging one hunk, as in the stock Mercurial run. *)
let merge_ns = 400_000

let exec m mc p (op : Gen.patch_op) =
  let k = System.kernel mc.sys in
  let pid = kfork m k ~parent:Kernel.init_pid in
  Ibuf.push mc.pids pid;
  kexec m k ~pid ~path:"/vol0/bin/patch" ~argv:[ "patch"; "-p1" ];
  let diff = read_whole m k ~pid ~path:(Gen.diff_path op.Gen.pt_diff) in
  let written = ref 0 in
  Array.iter
    (fun (h : Gen.hunk) ->
      let path = Gen.tree_path p h.Gen.h_file in
      let original = read_whole m k ~pid ~path in
      let b = Bytes.of_string original in
      Bytes.blit_string diff h.Gen.h_diff_off b h.Gen.h_off h.Gen.h_len;
      Kernel.cpu k merge_ns;
      let tmp = path ^ ".orig" in
      let fd = kopen m k ~pid ~path:tmp ~create:true in
      write_string m k ~pid ~fd (Bytes.unsafe_to_string b);
      kclose m k ~pid ~fd;
      krename m k ~pid ~src:tmp ~dst:path;
      written := !written + Bytes.length b)
    op.Gen.pt_hunks;
  kexit m k ~pid;
  !written

let run_ops m r mc p (w : Gen.patch) =
  let clock = System.clock mc.sys in
  let sim_now () = Simdisk.Clock.now clock in
  Array.iter
    (fun op ->
      match run_op m r ~sim_now (fun () -> exec m mc p op) with
      | Some bytes -> r.payload_bytes <- r.payload_bytes + bytes
      | None -> ())
    w.Gen.patch_ops

(* The tree the op stream must leave behind. *)
let expected_tree (w : Gen.patch) =
  let files = Array.map (fun (size, seed) -> Bytes.of_string (Gen.payload ~seed ~len:size)) w.Gen.tree in
  Array.iter
    (fun (op : Gen.patch_op) ->
      let dsize, dseed = w.Gen.diffs.(op.Gen.pt_diff) in
      let diff = Gen.payload ~seed:dseed ~len:dsize in
      Array.iter
        (fun (h : Gen.hunk) ->
          Bytes.blit_string diff h.Gen.h_diff_off files.(h.Gen.h_file) h.Gen.h_off h.Gen.h_len)
        op.Gen.pt_hunks)
    w.Gen.patch_ops;
  Array.map Bytes.unsafe_to_string files

(* Files whose final bytes differ from [expected]. *)
let tree_mismatches mc p expected =
  let k = System.kernel mc.sys in
  let q = Meter.create ~tracing:false in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let bad = ref 0 in
  Array.iteri
    (fun f want ->
      match read_whole q k ~pid ~path:(Gen.tree_path p f) with
      | got -> if not (String.equal got want) then incr bad
      | exception Op_failed _ -> incr bad)
    expected;
  let _ : (unit, Vfs.errno) result = Kernel.exit k ~pid in
  !bad

let run_queries m r ~seed p mc ~check =
  let pids = Ibuf.to_array mc.pids in
  let q = Gen.rng (seed + 7) in
  post_run_queries m r ~n:queries ~check
    (Option.get (Server.db mc.server))
    (function
      | Gen.Selective ->
          Printf.sprintf {|select A from Provenance.file as F F.input* as A where F.name = "%s"|}
            (Gen.tree_name (Gen.int q p.Gen.p_tree))
      | Gen.Attr ->
          Printf.sprintf {|select P from Provenance.process as P where P.pid = %d|}
            pids.(Gen.int q (Array.length pids))
      | Gen.Scan -> Printf.sprintf {|select F from Provenance.file as F where F.name ~ "src*%d.c"|} (Gen.int q 10))

let round ?(p = params) m ~seed ~check ?tracer ?monitor () =
  let w = Gen.gen_patch p ~seed in
  let registry = Telemetry.create () in
  let t0 = Meter.now_ns () in
  let mc = setup ~registry ?tracer ?monitor m p w System.Pass in
  let r = new_round ~setup_ns:(Meter.now_ns () - t0) in
  let clock = System.clock mc.sys in
  let k = System.kernel mc.sys in
  let sdisk = Server.disk mc.server and sext3 = Server.ext3 mc.server in
  let scratch = (Option.get (System.find_volume mc.sys "scratch")).System.v_disk in
  let disks () = sum_disk (Simdisk.Disk.stats sdisk) (Simdisk.Disk.stats scratch) in
  let c0 = snapshot registry and d0 = disks () and e0 = ext3_snapshot sext3 in
  let cs0 = Client.stats mc.client in
  let cs0 = (cs0.Client.rpcs, cs0.Client.retries, cs0.Client.txns) in
  let calls0 = Kernel.syscall_count k and rpcs0 = mc.wire.rpcs and inner0 = mc.wire.calls in
  let s0 = Simdisk.Clock.now clock and h0 = Meter.now_ns () in
  run_ops m r mc p w;
  Meter.span m "waldo.drain" (fun () ->
      ignore (System.drain mc.sys : int);
      ignore (Server.drain mc.server : int));
  r.pass_sim_ns <- Simdisk.Clock.now clock - s0;
  r.pass_host_ns <- Meter.now_ns () - h0;
  let d1 = disks () in
  r.disk_bytes <- d1.Simdisk.Disk.bytes_written - d0.Simdisk.Disk.bytes_written;
  let calls = Kernel.syscall_count k - calls0 in
  let rpcs = mc.wire.rpcs - rpcs0 and inner = mc.wire.calls - inner0 in
  let cs1 = Client.stats mc.client in
  let crpcs, cretries, ctxns = cs0 in
  let sdb = Option.get (Server.db mc.server) in
  r.prov_bytes <- Provdb.db_bytes sdb + Provdb.index_bytes sdb;
  let counts = delta c0 (snapshot registry) @ disk_counts d0 d1 @ ext3_counts sext3 e0 in
  let expected = expected_tree w in
  let bad = tree_mismatches mc p expected in
  r.failed <- r.failed + min bad r.attempted;
  let rows, examined = run_queries m r ~seed p mc ~check in
  let _, info = crash_and_recover m r ~clock sdisk in
  r.counts <-
    counts
    @ [
        ("kernel.calls", float_of_int calls);
        ("nfs.rpcs", float_of_int (cs1.Client.rpcs - crpcs));
        ("nfs.handled", float_of_int rpcs);
        ("nfs.calls", float_of_int inner);
        ("nfs.retries", float_of_int (cs1.Client.retries - cretries));
        ("nfs.txns", float_of_int (cs1.Client.txns - ctxns));
        ("pql.rows", float_of_int rows);
        ("pql.examined", float_of_int examined);
        ("waldo.replay_frames", float_of_int info.Waldo.ri_frames_replayed);
        ("waldo.archives", float_of_int info.Waldo.ri_archives);
        ("waldo.db_bytes", float_of_int (Provdb.db_bytes sdb));
        ("waldo.index_bytes", float_of_int (Provdb.index_bytes sdb));
      ];
  r

let baseline ?(p = params) ~seed () =
  let w = Gen.gen_patch p ~seed in
  let m = Meter.create ~tracing:false in
  let mc = setup m p w System.Vanilla in
  let r = new_round ~setup_ns:0 in
  let clock = System.clock mc.sys in
  let s0 = Simdisk.Clock.now clock and h0 = Meter.now_ns () in
  run_ops m r mc p w;
  let base_sim_ns = Simdisk.Clock.now clock - s0 and base_host_ns = Meter.now_ns () - h0 in
  let bad = tree_mismatches mc p (expected_tree w) in
  {
    base_sim_ns;
    base_host_ns;
    data_bytes = Ext3.live_bytes (Server.ext3 mc.server);
    base_failed = r.failed + bad;
  }
