(* PA-NFS tests (paper §6.1): protocol round trips, DPAPI over the wire,
   client-local freezes, the >64 KB transaction path, orphaned-transaction
   cleanup after a client crash, version branching under close-to-open
   consistency, and the Figure 1 two-server topology. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let ok = Helpers.ok
let ok_fs = Helpers.ok_fs

(* One client machine (a Pass-mode System with a local volume) plus a PA
   server mounted at /nfs0.  Everything shares one clock, so server disk
   time appears as client-visible latency. *)
let pa_setup () =
  let registry = Telemetry.create () in
  let sys = System.create ~registry ~mode:System.Pass ~machine:1 ~volume_names:[ "local" ] () in
  let clock = System.clock sys in
  let server =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" ()
  in
  let net = Proto.net clock in
  let client =
    Client.create ~registry ~net ~handler:(Server.handle server)
      ~ctx:(Kernel.ctx (System.kernel sys))
      ~mount_name:"nfs0" ()
  in
  System.mount_external sys ~name:"nfs0" ~ops:(Client.ops client)
    ~endpoint:(Client.endpoint client)
    ~file_handle:(Client.file_handle client)
    ~flush:(fun () -> Client.flush client) ();
  (sys, server, client, net)

let write_via_kernel sys ~pid ~path ~data =
  let k = System.kernel sys in
  let fd = ok_fs (Kernel.open_file k ~pid ~path ~create:true) in
  ok_fs (Kernel.write k ~pid ~fd ~data);
  ok_fs (Kernel.close k ~pid ~fd)

let read_via_kernel sys ~pid ~path =
  let k = System.kernel sys in
  let fd = ok_fs (Kernel.open_file k ~pid ~path ~create:false) in
  let st = ok_fs (Kernel.stat k ~path) in
  let data = ok_fs (Kernel.read k ~pid ~fd ~len:st.Vfs.st_size) in
  ok_fs (Kernel.close k ~pid ~fd);
  data

let test_plain_nfs_roundtrip () =
  let registry = Telemetry.create () in
  let sys = System.create ~registry ~mode:System.Vanilla ~machine:1 ~volume_names:[ "local" ] () in
  let clock = System.clock sys in
  let server = Server.create ~registry ~mode:Server.Plain ~clock ~machine:2 ~volume:"nfs0" () in
  let net = Proto.net clock in
  let client =
    Client.create ~registry ~net ~handler:(Server.handle server)
      ~ctx:(Kernel.ctx (System.kernel sys))
      ~mount_name:"nfs0" ()
  in
  System.mount_external sys ~name:"nfs0" ~ops:(Client.ops client) ();
  let pid = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
  let before = Simdisk.Clock.now clock in
  write_via_kernel sys ~pid ~path:"/nfs0/hello.txt" ~data:"over the wire";
  check tstr "remote roundtrip" "over the wire" (read_via_kernel sys ~pid ~path:"/nfs0/hello.txt");
  check tbool "network time charged" true (Simdisk.Clock.now clock > before);
  check tbool "rpcs counted" true ((Client.stats client).rpcs > 0);
  check tbool "bytes counted" true (net.Proto.bytes > 0)

let test_panfs_ancestry_at_server () =
  let sys, server, _client, _net = pa_setup () in
  let k = System.kernel sys in
  let writer = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid:writer ~path:"/nfs0/input.dat" ~data:"input-bytes";
  let worker = Kernel.fork k ~parent:Kernel.init_pid in
  let data = read_via_kernel sys ~pid:worker ~path:"/nfs0/input.dat" in
  write_via_kernel sys ~pid:worker ~path:"/nfs0/output.dat" ~data:(data ^ "!");
  ignore (Server.drain server : int);
  let db = Option.get (Server.db server) in
  check tbool "server db acyclic" true (Provdb.is_acyclic db);
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as O O.input* as A where O.name = "output.dat"|}
  in
  check tbool "server sees full chain" true (List.mem "input.dat" names)

let test_local_freeze_no_rpc () =
  let sys, _server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/f" ~data:"v0";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/f") in
  let rpcs_before = (Client.stats client).rpcs in
  let v = ok (Client.pass_freeze client h) in
  check tint "no rpc for freeze" rpcs_before (Client.stats client).rpcs;
  let r = ok (Client.pass_read client h ~off:0 ~len:2) in
  check tint "local version served" v r.Dpapi.r_version;
  check tstr "data still correct" "v0" r.Dpapi.data

let test_freeze_record_reaches_server () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/f" ~data:"v0";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/f") in
  let v = ok (Client.pass_freeze client h) in
  (* next write carries the pending freeze record *)
  let _ = ok (Client.pass_write client h ~off:0 ~data:(Some "v1") []) in
  ignore (Server.drain server : int);
  check tint "server adopted the version" v
    (Ctx.current_version (Server.ctx server) h.Dpapi.pnode);
  let db = Option.get (Server.db server) in
  let node = Option.get (Provdb.find_node db h.Dpapi.pnode) in
  check tbool "db knows the new version" true (node.Provdb.max_version >= v)

let test_large_write_uses_txn () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/big" ~data:"seed";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/big") in
  (* a bundle bigger than 64 KB: many identity records *)
  let records =
    List.init 3000 (fun i -> Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "param-%06d" i)))
  in
  let bundle = [ Dpapi.entry h records ] in
  check tbool "bundle really is over the limit" true
    (Dpapi.bundle_size bundle > Proto.block_limit);
  let _ = ok (Client.pass_write client h ~off:0 ~data:(Some "payload") bundle) in
  check tbool "a transaction was used" true ((Client.stats client).txns >= 1);
  let orphans = Server.drain server in
  check tint "no orphans" 0 orphans;
  check tbool "txn committed" true
    (Helpers.count (System.telemetry sys) "waldo.txns_committed" >= 1);
  let db = Option.get (Server.db server) in
  let quads = Provdb.records_all db h.Dpapi.pnode in
  let params = List.filter (fun (q : Provdb.quad) -> q.q_attr = "PARAMS") quads in
  check tint "all records ingested" 3000 (List.length params)

let test_orphaned_txn_discarded () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/victim" ~data:"seed";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/victim") in
  (* client starts a transaction, sends provenance, then dies *)
  let txn = ok (Client.begin_txn client) in
  let chunk = [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "never-committed") ] ] in
  ok (Client.send_prov_chunk client ~txn chunk);
  Client.crash client;
  (match Client.pass_read client h ~off:0 ~len:1 with
  | Error Dpapi.Ecrashed -> ()
  | _ -> Alcotest.fail "crashed client must not respond");
  let orphans = Server.drain server in
  check tint "one orphan discarded" 1 orphans;
  let db = Option.get (Server.db server) in
  let leaked =
    List.exists
      (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "never-committed")
      (Provdb.records_all db h.Dpapi.pnode)
  in
  check tbool "orphaned provenance never ingested" false leaked

let test_version_branching () =
  (* Two clients of one server, close-to-open consistency: both freeze the
     same file from the same base version and arrive at the same version
     number — version branching, which the paper accepts (§6.1.2). *)
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let server =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" ()
  in
  let net = Proto.net clock in
  let ctx1 = Ctx.create ~machine:11 and ctx2 = Ctx.create ~machine:12 in
  let c1 =
    Client.create ~registry ~net ~handler:(Server.handle server) ~ctx:ctx1 ~mount_name:"nfs0" ()
  in
  let c2 =
    Client.create ~registry ~net ~handler:(Server.handle server) ~ctx:ctx2 ~mount_name:"nfs0" ()
  in
  (* create the shared file via c1 *)
  let ino = ok_fs (Vfs.write_file (Client.ops c1) "/shared" "base") in
  let h1 = ok_fs (Client.file_handle c1 ino) in
  let h2 = ok_fs (Client.file_handle c2 ino) in
  let _ = ok (Client.pass_read c1 h1 ~off:0 ~len:4) in
  let _ = ok (Client.pass_read c2 h2 ~off:0 ~len:4) in
  let v1 = ok (Client.pass_freeze c1 h1) in
  let v2 = ok (Client.pass_freeze c2 h2) in
  check tint "both clients branch to the same version" v1 v2;
  (* both flush; the server's view converges on max *)
  let _ = ok (Client.pass_write c1 h1 ~off:0 ~data:(Some "one") []) in
  let _ = ok (Client.pass_write c2 h2 ~off:0 ~data:(Some "two") []) in
  ok_fs (Client.flush c1);
  ok_fs (Client.flush c2);
  check tint "server converged" v1 (Ctx.current_version (Server.ctx server) h1.Dpapi.pnode)

let test_rename_over_directory_refused () =
  (* the server's file system refuses a rename whose victim has the wrong
     kind or is a non-empty directory, and the errno crosses the wire *)
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let server =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" ()
  in
  let client =
    Client.create ~registry ~net:(Proto.net clock) ~handler:(Server.handle server)
      ~ctx:(Ctx.create ~machine:11) ~mount_name:"nfs0" ()
  in
  let ops = Client.ops client in
  ignore (ok_fs (Vfs.write_file ops "/f" "file") : Vfs.ino);
  ignore (ok_fs (Vfs.write_file ~mkparents:true ops "/d/inner" "inner") : Vfs.ino);
  ignore (ok_fs (Vfs.mkdir_p ops "/e") : Vfs.ino);
  List.iter
    (fun (src, dst, want) ->
      match Vfs.rename_path ops src dst with
      | Error e when e = want -> ()
      | Ok () -> Alcotest.failf "rename %s over %s succeeded" src dst
      | Error e -> Alcotest.failf "rename %s over %s: %s" src dst (Vfs.errno_to_string e))
    [ ("/f", "/d", Vfs.EISDIR); ("/d", "/f", Vfs.ENOTDIR); ("/e", "/d", Vfs.ENOTEMPTY) ];
  check tstr "file kept" "file" (ok_fs (Vfs.read_file ops "/f"));
  check tstr "subtree kept" "inner" (ok_fs (Vfs.read_file ops "/d/inner"))

let test_figure1_two_servers () =
  (* The Figure 1 topology: a workstation with a local disk plus two NFS
     servers; inputs on server A, outputs on server B, intermediates local.
     The unified (merged) database answers the cross-layer ancestry query;
     each server's database alone cannot. *)
  let registry = Telemetry.create () in
  let sys = System.create ~registry ~mode:System.Pass ~machine:1 ~volume_names:[ "local" ] () in
  let clock = System.clock sys in
  let ctx = Kernel.ctx (System.kernel sys) in
  let server_a =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:21 ~volume:"nfsA" ()
  in
  let server_b =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:22 ~volume:"nfsB" ()
  in
  let net = Proto.net clock in
  let ca =
    Client.create ~registry ~net ~handler:(Server.handle server_a) ~ctx ~mount_name:"nfsA" ()
  in
  let cb =
    Client.create ~registry ~net ~handler:(Server.handle server_b) ~ctx ~mount_name:"nfsB" ()
  in
  System.mount_external sys ~name:"nfsA" ~ops:(Client.ops ca) ~endpoint:(Client.endpoint ca)
    ~file_handle:(Client.file_handle ca)
    ~flush:(fun () -> Client.flush ca) ();
  System.mount_external sys ~name:"nfsB" ~ops:(Client.ops cb) ~endpoint:(Client.endpoint cb)
    ~file_handle:(Client.file_handle cb)
    ~flush:(fun () -> Client.flush cb) ();
  let k = System.kernel sys in
  (* colleague writes the input on server A *)
  let colleague = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid:colleague ~path:"/nfsA/align.in" ~data:"brain-scan-data";
  (* the workstation workflow: read A, stage locally, write B *)
  let wf = Kernel.fork k ~parent:Kernel.init_pid in
  let input = read_via_kernel sys ~pid:wf ~path:"/nfsA/align.in" in
  write_via_kernel sys ~pid:wf ~path:"/local/stage.tmp" ~data:(input ^ ":aligned");
  let staged = read_via_kernel sys ~pid:wf ~path:"/local/stage.tmp" in
  write_via_kernel sys ~pid:wf ~path:"/nfsB/atlas-x.gif" ~data:(staged ^ ":sliced");
  (* drain every database and merge *)
  ignore (System.drain sys : int);
  ignore (Server.drain server_a : int);
  ignore (Server.drain server_b : int);
  let merged = Provdb.create () in
  Provdb.merge_into ~dst:merged ~src:(Option.get (System.waldo_db sys "local"));
  Provdb.merge_into ~dst:merged ~src:(Option.get (Server.db server_a));
  Provdb.merge_into ~dst:merged ~src:(Option.get (Server.db server_b));
  check tbool "merged db acyclic" true (Provdb.is_acyclic merged);
  let names =
    Helpers.pql_names merged
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  check tbool "full chain crosses all three volumes" true
    (List.mem "align.in" names && List.mem "stage.tmp" names);
  (* without layering: server B alone does not know the remote input *)
  let b_only =
    Helpers.pql_names (Option.get (Server.db server_b))
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  check tbool "server B alone cannot see align.in" false (List.mem "align.in" b_only)

let test_server_disk_crash () =
  (* the server's disk dies mid-write: the client sees ECRASH, and after
     revival WAP recovery never flags completed writes — only (possibly)
     the in-flight one.  Scan several crash points; at least one must
     leave a detectable half-written state. *)
  let flagged_inflight = ref false in
  for crash_after = 0 to 11 do
    let sys, server, client, _net = pa_setup () in
    let k = System.kernel sys in
    let pid = Kernel.fork k ~parent:Kernel.init_pid in
    write_via_kernel sys ~pid ~path:"/nfs0/stable.dat" ~data:"stable";
    let stable_h = ok_fs (Kernel.handle_of_path k "/nfs0/stable.dat") in
    (* a fresh file so the write needs a new provenance frame *)
    let ino =
      match (Client.ops client).Vfs.create ~dir:Ext3.root_ino "victim.dat" Vfs.Regular with
      | Ok ino -> ino
      | Error e -> Alcotest.failf "create: %s" (Vfs.errno_to_string e)
    in
    let h = ok_fs (Client.file_handle client ino) in
    Simdisk.Disk.schedule_crash (Server.disk server) ~after_writes:crash_after;
    (match
       Result.bind
         (Client.pass_write client h ~off:0 ~data:(Some (Helpers.payload ~seed:3 ~len:2048)) [])
         (fun _ ->
           (* the buffered write reaches the wire at the flush point *)
           match Client.flush client with
           | Ok () -> Ok 0
           | Error Vfs.ECRASH -> Error Dpapi.Ecrashed
           | Error _ -> Error Dpapi.Eio)
     with
    | Error Dpapi.Ecrashed -> () (* the interesting case *)
    | Ok _ -> () (* the whole write fit before the crash point *)
    | Error e -> Alcotest.failf "unexpected error %s" (Dpapi.error_to_string e));
    (* note: reads served from the server's page cache can still succeed;
       only disk-touching operations observe the crash *)
    Simdisk.Disk.revive (Server.disk server);
    let remounted = Ext3.mount (Server.disk server) in
    let report = ok_fs (Recovery.scan ~registry:(Telemetry.create ()) (Ext3.ops remounted)) in
    List.iter
      (fun (i : Recovery.inconsistency) ->
        check tbool
          (Printf.sprintf "crash point %d: completed write never flagged" crash_after)
          false
          (Pnode.equal i.i_pnode stable_h.Dpapi.pnode);
        if Pnode.equal i.i_pnode h.Dpapi.pnode then flagged_inflight := true)
      report.inconsistent
  done;
  check tbool "some crash point exposes the in-flight write" true !flagged_inflight

let test_chunk_bundle () =
  let alloc = Pnode.allocator ~machine:7 in
  let h = Dpapi.handle ~volume:"v" (Pnode.fresh alloc) in
  (* one oversized entry: must split into several chunks, preserving the
     record order and total count *)
  let records =
    List.init 5000 (fun i -> Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "r%05d" i)))
  in
  let chunks = Client.chunk_bundle [ Dpapi.entry h records ] in
  check tbool "split into several" true (List.length chunks > 1);
  List.iter
    (fun chunk ->
      check tbool "each chunk under the limit" true
        (Dpapi.bundle_size chunk <= Proto.block_limit))
    chunks;
  let flattened =
    List.concat_map
      (fun chunk ->
        List.concat_map (fun (e : Dpapi.bundle_entry) -> e.records) chunk)
      chunks
  in
  check tint "no record lost" (List.length records) (List.length flattened);
  check tbool "order preserved" true (List.for_all2 Record.equal records flattened)

(* --- wire codec round trips -------------------------------------------------- *)

(* encode -> decode -> re-encode must be byte-identical and consume the
   whole buffer: the transport decodes every delivered datagram, so a
   replayed response is a byte-level replay. *)
let rt_req (r : Proto.req) =
  let b = Buffer.create 64 in
  Proto.encode_req b r;
  let s = Buffer.contents b in
  let pos = ref 0 in
  let r' = Proto.decode_req s pos in
  let b2 = Buffer.create 64 in
  Proto.encode_req b2 r';
  !pos = String.length s && String.equal s (Buffer.contents b2)

let rt_resp (r : Proto.resp) =
  let b = Buffer.create 64 in
  Proto.encode_resp b r;
  let s = Buffer.contents b in
  let pos = ref 0 in
  let r' = Proto.decode_resp s pos in
  let b2 = Buffer.create 64 in
  Proto.encode_resp b2 r';
  !pos = String.length s && String.equal s (Buffer.contents b2)

let test_proto_roundtrip_exhaustive () =
  let p = Pnode.of_int 77 in
  let h = Dpapi.handle ~volume:"nfs0" p in
  let bundle = [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "x"); Record.name "f" ] ] in
  let reqs : Proto.req list =
    [
      Lookup { dir = 1; name = "a" };
      Create { dir = 1; name = "b"; kind = Vfs.Regular };
      Create { dir = 1; name = "d"; kind = Vfs.Directory };
      Remove { dir = 2; name = "c" };
      Rename { src_dir = 1; src_name = "a"; dst_dir = 2; dst_name = "b" };
      Getattr { ino = 3 };
      Readdir { ino = 1 };
      Read { ino = 3; off = 5; len = 9 };
      Write { ino = 3; off = 0; data = "payload" };
      Truncate { ino = 3; size = 42 };
      Commit { ino = 3 };
      Op_passread { pnode = p; off = 1; len = 2 };
      Op_passwrite { pnode = p; off = 0; data = Some "d"; bundle; txn = Some 7 };
      Op_passwrite { pnode = p; off = 8; data = None; bundle = []; txn = None };
      Op_begintxn;
      Op_passprov { txn = 9; chunk = bundle };
      Op_passmkobj;
      Op_passreviveobj { pnode = p; version = 4 };
      Op_passsync { pnode = p };
      Op_pnode { ino = 6 };
      Op_passbatch { writes = [] };
      Op_passbatch
        {
          writes =
            [
              { bi_pnode = p; bi_off = 0; bi_data = Some "d"; bi_bundle = bundle };
              { bi_pnode = p; bi_off = 9; bi_data = None; bi_bundle = [] };
            ];
        };
    ]
  in
  let resps : Proto.resp list =
    [
      R_err Vfs.ENOENT;
      R_err Vfs.EAGAIN;
      R_err Vfs.ECRASH;
      R_ino 12;
      R_ok;
      R_attr { Vfs.st_ino = 3; st_kind = Vfs.Regular; st_size = 100 };
      R_names [ "a"; "b"; "c" ];
      R_names [];
      R_data "bytes";
      R_passread { data = "d"; pnode = p; version = 2 };
      R_version 5;
      R_txn 8;
      R_handle { pnode = p };
      R_batch [];
      R_batch [ R_version 1; R_version 2; R_err Vfs.EIO ];
    ]
  in
  List.iteri (fun i r -> check tbool (Printf.sprintf "req #%d" i) true (rt_req r)) reqs;
  List.iteri (fun i r -> check tbool (Printf.sprintf "resp #%d" i) true (rt_resp r)) resps;
  (* the call envelope too *)
  let call =
    { Proto.c_client = 3; c_seq = 41; c_trace = 7; c_span = 9;
      c_req = Getattr { ino = 3 } }
  in
  let b = Buffer.create 64 in
  Proto.encode_call b call;
  let s = Buffer.contents b in
  let c' = Proto.decode_call s (ref 0) in
  let b2 = Buffer.create 64 in
  Proto.encode_call b2 c';
  check tstr "call envelope round trip" s (Buffer.contents b2)

(* Every request constructor, with random fields. *)
let gen_req =
  let open QCheck2.Gen in
  let name = string_size ~gen:printable (int_range 1 24) in
  let payload = string_size ~gen:char (int_range 0 200) in
  let ino = int_range 0 10_000 in
  let off = int_range 0 1_000_000 in
  let pnode = map Pnode.of_int (int_range 1 1_000_000) in
  let bundle =
    let record = map2 (fun a v -> Record.make a (Pvalue.Str v)) name payload in
    let entry =
      map2 (fun p rs -> Dpapi.entry (Dpapi.handle ~volume:"v" p) rs)
        pnode
        (list_size (int_range 0 5) record)
    in
    list_size (int_range 0 3) entry
  in
  let gen_req =
    oneof
      [
        map2 (fun d n -> Proto.Lookup { dir = d; name = n }) ino name;
        map3
          (fun d n k ->
            Proto.Create { dir = d; name = n; kind = (if k then Vfs.Regular else Vfs.Directory) })
          ino name bool;
        map2 (fun d n -> Proto.Remove { dir = d; name = n }) ino name;
        map
          (fun (((sd, sn), dd), dn) ->
            Proto.Rename { src_dir = sd; src_name = sn; dst_dir = dd; dst_name = dn })
          (pair (pair (pair ino name) ino) name);
        map (fun i -> Proto.Getattr { ino = i }) ino;
        map (fun i -> Proto.Readdir { ino = i }) ino;
        map3 (fun i o l -> Proto.Read { ino = i; off = o; len = l }) ino off small_nat;
        map3 (fun i o d -> Proto.Write { ino = i; off = o; data = d }) ino off payload;
        map2 (fun i s -> Proto.Truncate { ino = i; size = s }) ino off;
        map (fun i -> Proto.Commit { ino = i }) ino;
        map3 (fun p o l -> Proto.Op_passread { pnode = p; off = o; len = l }) pnode off small_nat;
        map
          (fun (((p, o), d), (b, t)) -> Proto.Op_passwrite { pnode = p; off = o; data = d; bundle = b; txn = t })
          (pair (pair (pair pnode off) (option payload)) (pair bundle (option small_nat)));
        pure Proto.Op_begintxn;
        map2 (fun t c -> Proto.Op_passprov { txn = t; chunk = c }) small_nat bundle;
        pure Proto.Op_passmkobj;
        map2 (fun p v -> Proto.Op_passreviveobj { pnode = p; version = v }) pnode small_nat;
        map (fun p -> Proto.Op_passsync { pnode = p }) pnode;
        map (fun i -> Proto.Op_pnode { ino = i }) ino;
        (let item =
           map
             (fun (((p, o), d), b) ->
               { Proto.bi_pnode = p; bi_off = o; bi_data = d; bi_bundle = b })
             (pair (pair (pair pnode off) (option payload)) bundle)
         in
         map (fun ws -> Proto.Op_passbatch { writes = ws }) (list_size (int_range 0 6) item));
      ]
  in
  gen_req

let prop_proto_roundtrip =
  QCheck2.Test.make ~name:"proto: every req round-trips the wire" ~count:300 gen_req rt_req

(* --- recovery after a server crash mid-transaction (ISSUE satellite) --------- *)

let test_server_crash_mid_txn () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/obj" ~data:"seed";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/obj") in
  let txn = ok (Client.begin_txn client) in
  ok
    (Client.send_prov_chunk client ~txn
       [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "in-flight") ] ]);
  (* the server host dies before the terminating OP_PASSWRITE *)
  Simdisk.Disk.crash (Server.disk server);
  (match Client.end_txn_write client ~txn h ~off:0 ~data:(Some "final") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write must not complete on a dead server");
  Simdisk.Disk.revive (Server.disk server);
  (* recovery over the revived medium sees the half-finished transaction *)
  let remounted = Ext3.mount (Server.disk server) in
  let report = ok_fs (Recovery.scan ~registry:(Telemetry.create ()) (Ext3.ops remounted)) in
  check tbool "recovery reports the open txn" true (List.mem txn report.Recovery.open_txns);
  (* Waldo's orphan count matches the recovery report exactly *)
  let orphans = Server.drain server in
  check tint "Waldo orphans = recovery's open txns" (List.length report.Recovery.open_txns)
    orphans;
  let db = Option.get (Server.db server) in
  let leaked =
    List.exists
      (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "in-flight")
      (Provdb.records_all db h.Dpapi.pnode)
  in
  check tbool "orphaned provenance never ingested" false leaked;
  (* the revived service accepts new work: the client re-creates the object *)
  let ino2 =
    match (Client.ops client).Vfs.create ~dir:Ext3.root_ino "obj.new" Vfs.Regular with
    | Ok ino -> ino
    | Error e -> Alcotest.failf "re-create after revival: %s" (Vfs.errno_to_string e)
  in
  let h2 = ok_fs (Client.file_handle client ino2) in
  let _ = ok (Client.pass_write client h2 ~off:0 ~data:(Some "recreated") []) in
  let r = ok (Client.pass_read client h2 ~off:0 ~len:9) in
  check tstr "recreated object readable" "recreated" r.Dpapi.data

let test_proto_sizes () =
  let req_len req =
    let b = Buffer.create 64 in
    Proto.encode_req b req;
    Buffer.length b
  in
  let big = Proto.Write { ino = 3; off = 0; data = String.make 10_000 'x' } in
  let small = Proto.Getattr { ino = 3 } in
  check tbool "request size tracks payload" true (req_len big > 10_000 && req_len small < 64);
  (* a reply is charged by its encoded length, measured without building it *)
  List.iter
    (fun resp ->
      let b = Buffer.create 64 in
      Proto.encode_resp b resp;
      check tint "reply size = encoded length" (Buffer.length b) (Proto.resp_size resp))
    [ Proto.R_ok; R_data (String.make 10_000 'x'); R_names [ "a"; "bc" ];
      R_batch [ R_version 1; R_err Vfs.EIO ] ];
  check tbool "reply size tracks payload" true
    (Proto.resp_size (R_data (String.make 10_000 'x')) > 10_000 && Proto.resp_size R_ok < 64)

(* --- host-cost work on the RPC path must not move the cost model --------- *)

(* A PA server and client on one clock, over a link whose fault plan
   draws every kind of network fault, so retries, DRC replays, lost
   replies and partitions all charge the clock. *)
let faulty_link ~seed ~handler_hook =
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let spec =
    { Fault.quiet with
      drop_request = 40; drop_response = 40; duplicate = 40;
      delay = 60; delay_ns = (200_000, 2_000_000);
      partition = 6; partition_ns = (10_000_000, 40_000_000) }
  in
  let plan = Fault.plan ~registry ~spec ~seed () in
  let server = Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" () in
  let net = Proto.net ~fault:plan clock in
  let client =
    Client.create ~registry ~net
      ~handler:(fun c -> handler_hook c; Server.handle server c)
      ~ctx:(Ctx.create ~machine:1) ~mount_name:"nfs0" ()
  in
  (registry, clock, plan, net, client)

(* Every RPC kind the client issues, with replies of every size: plain
   streaming and short writes, coalesced provenance runs, a transactional
   write, reads of data and provenance, namespace operations and syncs. *)
let transport_workload client =
  let ops = Client.ops client in
  let ignore_fs : 'a. ('a, Vfs.errno) result -> unit = fun _ -> () in
  let ignore_dp : 'a. ('a, Dpapi.error) result -> unit = fun _ -> () in
  let body k n = String.init n (fun i -> Char.chr (97 + ((k + i) mod 26))) in
  let inos =
    List.filter_map
      (fun k ->
        match ops.create ~dir:Ext3.root_ino (Printf.sprintf "t%02d" k) Vfs.Regular with
        | Ok ino -> Some (k, ino)
        | Error _ -> None)
      (List.init 10 Fun.id)
  in
  (* plain: a 3-piece streaming run per file, then a short write *)
  List.iter
    (fun (k, ino) ->
      for j = 0 to 2 do ignore_fs (ops.write ino ~off:(j * 8192) (body (k + j) 8192)) done;
      ignore_fs (ops.write ino ~off:24576 (body k 300)))
    inos;
  let handles =
    List.filter_map
      (fun (k, ino) ->
        match Client.file_handle client ino with Ok h -> Some (k, h) | Error _ -> None)
      inos
  in
  (* provenance: two contiguous pieces per file coalesce into one run,
     flushed by the next file's write; an oversized write flushes the run
     and takes the transaction path *)
  List.iter
    (fun (k, h) ->
      let bundle j =
        [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "t%d.%d" k j)) ] ]
      in
      ignore_dp (Client.pass_write client h ~off:0 ~data:(Some (body k 5000)) (bundle 0));
      ignore_dp (Client.pass_write client h ~off:5000 ~data:(Some (body (k + 1) 700)) (bundle 1));
      if k mod 4 = 3 then
        ignore_dp (Client.pass_write client h ~off:0 ~data:(Some (body k 70_000)) (bundle 2));
      if k mod 3 = 0 then ignore_dp (Client.pass_freeze client h))
    handles;
  List.iter (fun (_, h) -> ignore_dp (Client.pass_read client h ~off:0 ~len:4096)) handles;
  List.iter
    (fun (k, ino) ->
      ignore_fs (ops.read ino ~off:0 ~len:8192);
      ignore_fs (ops.getattr ino);
      ignore_fs (ops.lookup ~dir:Ext3.root_ino (Printf.sprintf "t%02d" k));
      if k mod 2 = 0 then ignore_fs (ops.fsync ino))
    inos;
  ignore_fs (ops.readdir Ext3.root_ino);
  ignore_fs
    (ops.rename ~src_dir:Ext3.root_ino ~src_name:"t01" ~dst_dir:Ext3.root_ino ~dst_name:"t01.new");
  ignore_fs (ops.unlink ~dir:Ext3.root_ino "t02");
  ignore_fs (ops.truncate (List.assoc 3 inos) 100)

let test_transport_costs_unchanged () =
  let sums = Array.make 10 0 in
  let kinds = [ "drop_request"; "drop_response"; "duplicate"; "delay"; "partition" ] in
  let injected = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      let registry, clock, plan, net, client = faulty_link ~seed ~handler_hook:(fun _ -> ()) in
      transport_workload client;
      (* faults clear: everything parked drains *)
      Fault.deactivate plan;
      (match Client.flush client with Ok () -> () | Error _ -> Alcotest.fail "flush");
      (match Client.drain_backlog client with Ok () -> () | Error _ -> Alcotest.fail "drain");
      let v name = Option.value (Telemetry.counter_value registry name) ~default:0 in
      List.iter
        (fun kind ->
          let n = v ("fault.injected." ^ kind) in
          Hashtbl.replace injected kind (n + Option.value (Hashtbl.find_opt injected kind) ~default:0))
        kinds;
      let st = Client.stats client in
      let rtt = Option.get (Telemetry.histogram_summary registry "panfs.rpc_latency") in
      List.iteri
        (fun k x -> sums.(k) <- sums.(k) + x)
        [ Simdisk.Clock.now clock; net.Proto.messages; net.bytes; st.rpcs; st.retries; st.txns;
          st.inline_writes; v "nfs.drc.hits"; rtt.count; int_of_float rtt.sum ])
    [ 3; 17; 41 ];
  List.iter
    (fun kind -> check tbool (kind ^ " injected") true (Hashtbl.find injected kind > 0))
    kinds;
  (* golden values produced by the copying transport and write-behind,
     with its provenance write-behind holding one file at a time *)
  check Alcotest.(list int)
    "clock, messages, bytes, rpcs, retries, txns, inline, DRC hits, rpc_latency count/sum"
    [ 738313302; 638; 1860880; 285; 29; 6; 30; 28; 285; 723687567 ]
    (Array.to_list sums)

(* Write-behind by reference: random streams of contiguous and scattered,
   short and large writes over several files, through the plain buffer or
   the provenance buffer.  After a flush the
   server holds exactly what a flat per-file model says, and the request
   datagrams are the ones the copying buffers sent (MD5 pinned). *)
type wb_write = { w_file : int; w_at : int option (* None = append *); w_len : int; w_fill : int }
type wb_step = Wb_write of wb_write | Wb_barrier
type wb_prog = { wp_prov : bool; wp_steps : wb_step list }

let gen_wb_prog =
  let open QCheck2.Gen in
  let len =
    frequency
      [ (5, int_range 1 4095); (4, int_range 4096 20_000); (1, int_range 60_000 70_000) ]
  in
  let write =
    map
      (fun (((w_file, at), w_len), w_fill) -> { w_file; w_at = at; w_len; w_fill })
      (pair (pair (pair (int_range 0 3) (frequency [ (3, pure None); (1, map Option.some (int_range 0 90_000)) ])) len)
         (int_range 0 25))
  in
  let step = frequency [ (9, map (fun w -> Wb_write w) write); (1, pure Wb_barrier) ] in
  map (fun (wp_prov, wp_steps) -> { wp_prov; wp_steps }) (pair bool (list_size (int_range 1 16) step))

let print_wb_prog p =
  Printf.sprintf "{prov=%b; steps=[%s]}" p.wp_prov
    (String.concat "; "
       (List.map
          (function
            | Wb_barrier -> "barrier"
            | Wb_write w ->
                Printf.sprintf "f%d@%s+%d/%d" w.w_file
                  (match w.w_at with None -> "end" | Some o -> string_of_int o)
                  w.w_len w.w_fill)
          p.wp_steps))

(* per-datagram digests, in send order, across every program run *)
let wb_wire = Buffer.create 4096

let run_wb_prog p =
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let server =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" ()
  in
  let net = Proto.net clock in
  let dgram = Buffer.create 256 in
  let handler c =
    Buffer.clear dgram;
    Proto.encode_call dgram c;
    Buffer.add_string wb_wire (Digest.string (Buffer.contents dgram));
    Server.handle server c
  in
  let client =
    Client.create ~registry ~net ~handler ~ctx:(Ctx.create ~machine:1) ~mount_name:"nfs0" ()
  in
  let ops = Client.ops client in
  let files =
    Array.init 4 (fun k ->
        let ino = ok_fs (ops.create ~dir:Ext3.root_ino (Printf.sprintf "w%d" k) Vfs.Regular) in
        (ino, ok_fs (Client.file_handle client ino), ref Bytes.empty))
  in
  List.iteri
    (fun n step ->
      match step with
      | Wb_barrier ->
          let ino, _, _ = files.(0) in
          let _ : Vfs.stat = ok_fs (ops.getattr ino) in
          ()
      | Wb_write w ->
          let ino, h, model = files.(w.w_file) in
          let off = match w.w_at with Some o -> o | None -> Bytes.length !model in
          let data = String.init w.w_len (fun i -> Char.chr (97 + ((w.w_fill + i) mod 26))) in
          if off + w.w_len > Bytes.length !model then
            model := Bytes.cat !model (Bytes.make (off + w.w_len - Bytes.length !model) '\000');
          Bytes.blit_string data 0 !model off w.w_len;
          if p.wp_prov then
            ignore
              (ok
                 (Client.pass_write client h ~off ~data:(Some data)
                    [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str (string_of_int n)) ] ])
                : int)
          else ok_fs (ops.write ino ~off data))
    p.wp_steps;
  ok_fs (Client.flush client);
  Array.for_all
    (fun (ino, _, model) ->
      let size = (ok_fs (ops.getattr ino)).Vfs.st_size in
      size = Bytes.length !model
      && String.equal (ok_fs (ops.read ino ~off:0 ~len:size)) (Bytes.to_string !model))
    files

let prop_write_behind =
  QCheck2.Test.make ~name:"panfs: write-behind matches a flat model" ~count:150
    ~print:print_wb_prog gen_wb_prog run_wb_prog

let test_write_behind_model () =
  Buffer.clear wb_wire;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 0x5eb |]) prop_write_behind;
  check tstr "MD5 over every request datagram" "c145ce040217bf7557ec65183f9073be"
    (Digest.to_hex (Digest.string (Buffer.contents wb_wire)))

(* The server still executes OP_PASSBATCH (wire tag 28), though the client
   never sends it: items apply in order up to the first error, and the
   whole envelope is one duplicate-request-cache entry. *)
let test_server_passbatch () =
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let server =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" ()
  in
  let send c_seq req =
    Server.handle server { Proto.c_client = 7; c_seq; c_trace = 0; c_span = 0; c_req = req }
  in
  let seq = ref 0 in
  let call req =
    incr seq;
    send !seq req
  in
  let file name =
    match call (Proto.Create { dir = Ext3.root_ino; name; kind = Vfs.Regular }) with
    | Proto.R_ino ino -> (
        match call (Proto.Op_pnode { ino }) with
        | Proto.R_handle { pnode } -> (ino, pnode)
        | _ -> Alcotest.fail "pnode")
    | _ -> Alcotest.fail "create"
  in
  let ino_a, pa = file "a" and ino_b, pb = file "b" and _, pc = file "c" in
  (* a write to a removed file fails (ESTALE) *)
  (match call (Proto.Remove { dir = Ext3.root_ino; name = "c" }) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "remove");
  let item pnode data tag =
    let h = Dpapi.handle ~volume:"nfs0" pnode in
    { Proto.bi_pnode = pnode; bi_off = 0; bi_data = Some data;
      bi_bundle = [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str tag) ] ] }
  in
  let batch =
    Proto.Op_passbatch
      { writes = [ item pa "first" "item1"; item pc "second" "item2"; item pb "third" "item3" ] }
  in
  let reply = call batch in
  let batch_seq = !seq in
  (match reply with
  | Proto.R_batch [ Proto.R_version _; Proto.R_err _ ] -> ()
  | _ -> Alcotest.fail "expected R_batch [R_version _; R_err _]");
  let read ino =
    match call (Proto.Read { ino; off = 0; len = 64 }) with
    | Proto.R_data d -> d
    | _ -> Alcotest.fail "read"
  in
  check tstr "item 1 applied" "first" (read ino_a);
  check tstr "item 3 not applied" "" (read ino_b);
  ignore (Server.drain server : int);
  let db = Option.get (Server.db server) in
  let params p =
    List.filter (fun (q : Provdb.quad) -> q.q_attr = "PARAMS") (Provdb.records_all db p)
  in
  check tint "item 1's record ingested" 1 (List.length (params pa));
  check tint "item 3's record not ingested" 0 (List.length (params pb));
  let image = Provdb.serialize db in
  let v name = Option.value (Telemetry.counter_value registry name) ~default:0 in
  let hits = v "nfs.drc.hits" and requests = v "panfs.server.requests" in
  let now = Simdisk.Clock.now clock in
  (* a retransmitted envelope replays the cached reply *)
  check tbool "replay returns the cached reply" true (send batch_seq batch = reply);
  check tint "one DRC hit" (hits + 1) (v "nfs.drc.hits");
  check tint "no item re-executed" requests (v "panfs.server.requests");
  check tint "replay costs no server time" now (Simdisk.Clock.now clock);
  ignore (Server.drain server : int);
  check tbool "provdb unchanged by the replay" true (String.equal image (Provdb.serialize db));
  check tstr "item 1 applied once" "first" (read ino_a);
  check tstr "item 3 still not applied" "" (read ino_b)

(* --- payloads by reference ---------------------------------------------------- *)

(* The header [encode_header] writes, with the payload spliced back in at
   the offset it returns. *)
let spliced (c : Proto.call) =
  let b = Buffer.create 64 in
  let at = Proto.encode_header b c in
  let h = Buffer.contents b in
  match Proto.payload c.c_req with
  | None ->
      check tint "no payload, no splice point" (-1) at;
      h
  | Some p -> String.sub h 0 at ^ p ^ String.sub h at (String.length h - at)

let header_of (c : Proto.call) =
  let b = Buffer.create 64 in
  let (_ : int) = Proto.encode_header b c in
  Buffer.contents b

let inline_of (c : Proto.call) =
  let b = Buffer.create 64 in
  Proto.encode_call b c;
  Buffer.contents b

let call_of seq req = { Proto.c_client = 3; c_seq = seq; c_trace = 1; c_span = 2; c_req = req }

(* A PA server behind a handler that records, for every delivery, the
   call's sequence number and the request's payload. *)
let recording_link ?(fault = Fault.none) () =
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let server =
    Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" ()
  in
  let delivered = ref [] in
  let handler (c : Proto.call) =
    (match Proto.payload c.c_req with
    | Some p -> delivered := (c.c_seq, p) :: !delivered
    | None -> ());
    Server.handle server c
  in
  let client =
    Client.create ~registry ~net:(Proto.net ~fault clock) ~handler
      ~ctx:(Ctx.create ~machine:1) ~mount_name:"nfs0" ()
  in
  (registry, client, delivered)

let test_payloads_by_reference () =
  (* the server is handed the strings the client flushed, not copies *)
  let _, client, delivered = recording_link () in
  let ops = Client.ops client in
  let ino = ok_fs (ops.create ~dir:Ext3.root_ino "p" Vfs.Regular) in
  let h = ok_fs (Client.file_handle client ino) in
  let short = String.make 300 'w' and prov = String.make 5000 'p' in
  (* a short write flushes at once; a one-piece provenance run flushes
     as the string it was given *)
  ok_fs (ops.write ino ~off:0 short);
  let (_ : int) =
    ok (Client.pass_write client h ~off:300 ~data:(Some prov)
          [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "x") ] ])
  in
  ok_fs (Client.flush client);
  (match List.rev_map snd !delivered with
  | [ w; pw ] ->
      check tbool "Write.data is the flushed string" true (w == short);
      check tbool "Op_passwrite.data is the flushed string" true (pw == prov)
  | l -> Alcotest.failf "expected two payloads, saw %d" (List.length l));
  check tstr "the server holds the data" (short ^ prov)
    (ok_fs (ops.read ino ~off:0 ~len:5300));
  (* header + payload is the inline form, for every constructor, and the
     header decodes back to the call with the payload taken by reference *)
  let names = Hashtbl.create 32 in
  List.iteri
    (fun seq req ->
      Hashtbl.replace names (Proto.req_name req) ();
      let c = call_of seq req in
      let inline = inline_of c in
      check tstr "header with the payload spliced in = encode_call" inline (spliced c);
      let payload = Proto.payload req in
      let c' = Proto.decode_header (header_of c) (ref 0) payload in
      check tstr "header decodes to the call" inline (inline_of c');
      match (payload, Proto.payload c'.c_req) with
      | Some p, Some p' -> check tbool "decoded payload is the one sent" true (p == p')
      | None, None -> ()
      | _ -> Alcotest.fail "payload lost or invented")
    (QCheck2.Gen.generate ~rand:(Random.State.make [| 0xda7a |]) ~n:600 gen_req);
  check tint "every constructor generated" 19 (Hashtbl.length names);
  (* a payload whose length disagrees with the header is corrupt *)
  List.iter
    (fun req ->
      let header = header_of (call_of 0 req) in
      List.iter
        (fun bad ->
          match Proto.decode_header header (ref 0) (Some bad) with
          | _ -> Alcotest.failf "a %d-byte payload was accepted" (String.length bad)
          | exception Wire.Corrupt _ -> ())
        [ "payloa"; "payload!"; "" ])
    [ Proto.Write { ino = 3; off = 0; data = "payload" };
      Proto.Op_passwrite
        { pnode = Pnode.of_int 9; off = 0; data = Some "payload"; bundle = []; txn = None } ];
  (* duplicated requests and lost replies replay from the DRC, and every
     delivery still carries the caller's string *)
  let spec = { Fault.quiet with duplicate = 250; drop_response = 250 } in
  let injected = Telemetry.create () in
  let plan = Fault.plan ~registry:injected ~spec ~seed:5 () in
  let registry, client, delivered = recording_link ~fault:plan () in
  let ops = Client.ops client in
  let ino = ok_fs (ops.create ~dir:Ext3.root_ino "q" Vfs.Regular) in
  let h = ok_fs (Client.file_handle client ino) in
  let sent = ref [] in
  for k = 0 to 19 do
    let d = String.make (100 + k) (Char.chr (97 + k)) in
    sent := d :: !sent;
    if k mod 2 = 0 then ok_fs (ops.write ino ~off:(k * 200) d)
    else begin
      let (_ : int) = ok (Client.pass_write client h ~off:(k * 200) ~data:(Some d) []) in
      ok_fs (Client.flush client)
    end
  done;
  let count registry name = Option.value (Telemetry.counter_value registry name) ~default:0 in
  check tbool "duplicates injected" true (count injected "fault.injected.duplicate" > 0);
  check tbool "replies lost" true (count injected "fault.injected.drop_response" > 0);
  check tint "one call per write" (List.length !sent)
    (List.length (List.sort_uniq Int.compare (List.map fst !delivered)));
  let replays = List.length !delivered - List.length !sent in
  check tbool "some payloads were delivered again" true (replays > 0);
  check tbool "every replay hit the DRC" true (count registry "nfs.drc.hits" >= replays);
  check tbool "every delivery carries a caller's string" true
    (List.for_all (fun (_, d) -> List.exists (( == ) d) !sent) !delivered);
  let expect = Bytes.make ((19 * 200) + 119) '\000' in
  List.iteri (fun i d -> Bytes.blit_string d 0 expect ((19 - i) * 200) (String.length d)) !sent;
  check tstr "each write applied once" (Bytes.to_string expect)
    (ok_fs (ops.read ino ~off:0 ~len:4000))

(* --- the duplicate-request cache ---------------------------------------------- *)

(* The cache as a (client, seq) table plus a FIFO queue of keys, capacity
   512: the model the int-keyed ring must match. *)
module Fifo_drc = struct
  type t = { tbl : (int * int, unit) Hashtbl.t; order : (int * int) Queue.t }

  let create () = { tbl = Hashtbl.create 1024; order = Queue.create () }

  (* [true] on a hit *)
  let call t key =
    Hashtbl.mem t.tbl key
    || begin
         Hashtbl.replace t.tbl key ();
         Queue.add key t.order;
         if Queue.length t.order > 512 then Hashtbl.remove t.tbl (Queue.pop t.order);
         false
       end

  let size t = Hashtbl.length t.tbl
end

let test_drc_ring_matches_fifo () =
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let server = Server.create ~registry ~mode:Server.Plain ~clock ~machine:2 ~volume:"v" () in
  let model = Fifo_drc.create () in
  let v name = Option.value (Telemetry.counter_value registry name) ~default:0 in
  let size () =
    match Telemetry.series_snapshot ~filter:"nfs.drc.size" registry with
    | [ s ] -> int_of_float s.Telemetry.se_value
    | _ -> Alcotest.fail "nfs.drc.size"
  in
  let r = Wk.rng 0xd4c in
  let next_seq = Array.make 4 0 in
  let issued = ref [||] and n_issued = ref 0 in
  let hits = ref 0 and evicted_replays = ref 0 in
  for step = 1 to 4000 do
    let fresh = ref false in
    let key =
      match Wk.rand r 20 with
      | k when k < 4 && !n_issued > 0 ->
          (* a replay of one of the last 100 calls: cached *)
          !issued.(!n_issued - 1 - Wk.rand r (min 100 !n_issued))
      | k when k < 6 && !n_issued > 0 ->
          (* a replay of any earlier call: often evicted *)
          !issued.(Wk.rand r !n_issued)
      | _ ->
          let client = 1 + Wk.rand r 3 in
          let seq = next_seq.(client) in
          next_seq.(client) <- seq + 1;
          if !n_issued = Array.length !issued then
            issued := Array.append !issued (Array.make (max 64 !n_issued) (0, 0));
          !issued.(!n_issued) <- (client, seq);
          incr n_issued;
          fresh := true;
          (client, seq)
    in
    let hit = Fifo_drc.call model key in
    if hit then incr hits else if not !fresh then incr evicted_replays;
    let client, seq = key in
    let (_ : Proto.resp) =
      Server.handle server
        { Proto.c_client = client; c_seq = seq; c_trace = 0; c_span = 0;
          c_req = Proto.Getattr { ino = Ext3.root_ino } }
    in
    if v "nfs.drc.hits" <> !hits || v "nfs.drc.misses" <> step - !hits
       || size () <> Fifo_drc.size model
    then Alcotest.failf "step %d: the ring diverged from the FIFO model" step
  done;
  check tbool "replays hit before eviction" true (!hits > 100);
  check tbool "replays missed after eviction" true (!evicted_replays > 100);
  check tint "the cache is full" 512 (size ());
  (* the key packs 22 bits of client id above 40 of sequence number *)
  let max_client = (1 lsl 22) - 1 and max_seq = (1 lsl 40) - 1 in
  let corners =
    [ (0, 0); (0, 1); (1, 0); (0, max_seq); (1, max_seq); (max_client, 0);
      (max_client, max_seq); (max_client - 1, max_seq) ]
  in
  let keys = List.map (fun (client, seq) -> Server.drc_key ~client ~seq) corners in
  check tint "corner keys are distinct" (List.length corners)
    (List.length (List.sort_uniq Int.compare keys));
  check tbool "keys are non-negative" true (List.for_all (fun k -> k >= 0) keys);
  List.iter
    (fun (client, seq) ->
      match Server.drc_key ~client ~seq with
      | _ -> Alcotest.failf "drc_key accepted (%d, %d)" client seq
      | exception Invalid_argument _ -> ())
    [ (max_client + 1, 0); (0, max_seq + 1); (-1, 0); (0, -1) ]

let suite =
  [
    Alcotest.test_case "plain NFS roundtrip over the wire" `Quick test_plain_nfs_roundtrip;
    Alcotest.test_case "PA-NFS ancestry lands at the server" `Quick
      test_panfs_ancestry_at_server;
    Alcotest.test_case "freeze is client-local (no RPC)" `Quick test_local_freeze_no_rpc;
    Alcotest.test_case "freeze records reach the server in writes" `Quick
      test_freeze_record_reaches_server;
    Alcotest.test_case "large writes use transactions" `Quick test_large_write_uses_txn;
    Alcotest.test_case "client crash orphans are discarded" `Quick test_orphaned_txn_discarded;
    Alcotest.test_case "version branching across clients" `Quick test_version_branching;
    Alcotest.test_case "rename over a directory is refused" `Quick
      test_rename_over_directory_refused;
    Alcotest.test_case "Figure 1: two servers + workstation" `Quick test_figure1_two_servers;
    Alcotest.test_case "server disk crash + recovery" `Quick test_server_disk_crash;
    Alcotest.test_case "bundle chunking" `Quick test_chunk_bundle;
    Alcotest.test_case "protocol message sizes" `Quick test_proto_sizes;
    Alcotest.test_case "wire codec round trips (all constructors)" `Quick
      test_proto_roundtrip_exhaustive;
    QCheck_alcotest.to_alcotest prop_proto_roundtrip;
    Alcotest.test_case "server crash mid-transaction + recovery" `Quick
      test_server_crash_mid_txn;
    Alcotest.test_case "panfs: transport costs unchanged" `Quick test_transport_costs_unchanged;
    Alcotest.test_case "panfs: write-behind matches a flat model" `Quick test_write_behind_model;
    Alcotest.test_case "server: OP_PASSBATCH stops at the first error and replays from the DRC"
      `Quick test_server_passbatch;
    Alcotest.test_case "panfs: payloads cross the wire by reference" `Quick
      test_payloads_by_reference;
    Alcotest.test_case "server: DRC ring evicts like the FIFO" `Quick test_drc_ring_matches_fifo;
  ]
