(* Waldo tests: log ingestion fidelity, FREEZE-driven version attribution,
   transaction buffering/commit, orphan discarding, log-file cleanup, and
   database merging / size accounting. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* One Lasagna volume with its Waldo, reporting into [registry]. *)
let fresh_in registry =
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Simdisk.Clock.advance clock) ()
  in
  let waldo = Waldo.create ~registry ~lower:(Ext3.ops ext3) () in
  Waldo.attach waldo lasagna;
  (ctx, ext3, lasagna, waldo)

let fresh () = fresh_in (Telemetry.create ())

let test_ingestion_fidelity () =
  let registry = Telemetry.create () in
  let ctx, _ext3, lasagna, waldo = fresh_in registry in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  let records =
    [ Record.typ "WIDGET"; Record.name "the-widget";
      Record.make "PARAMS" (Pvalue.Strs [ "a=1"; "b=2" ]) ]
  in
  Helpers.ok (Dpapi.disclose ep h records);
  ignore (Waldo.finalize waldo lasagna : int);
  let db = Waldo.db waldo in
  let quads = Provdb.records_all db h.Dpapi.pnode in
  check tint "all records ingested" 3 (List.length quads);
  check tbool "content preserved" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "the-widget") quads);
  check tint "counter agrees" 3 (Helpers.count registry "waldo.records_ingested");
  ignore (ctx : Ctx.t)

let test_freeze_version_attribution () =
  let ctx, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok (Dpapi.disclose ep h [ Record.name "before" ]);
  ignore (Helpers.ok (ep.pass_freeze h) : int);
  Helpers.ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Str "after") ]);
  ignore (Waldo.finalize waldo lasagna : int);
  let db = Waldo.db waldo in
  let v0 = Provdb.records_at db h.Dpapi.pnode ~version:0 in
  let v1 = Provdb.records_at db h.Dpapi.pnode ~version:1 in
  check tbool "pre-freeze record at v0" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "before") v0);
  check tbool "freeze marker at v1" true
    (List.exists (fun (q : Provdb.quad) -> q.q_attr = Record.Attr.freeze) v1);
  check tbool "post-freeze record at v1" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "after") v1);
  ignore (ctx : Ctx.t)

let test_logs_removed_after_processing () =
  let registry = Telemetry.create () in
  let _ctx, ext3, lasagna, waldo = fresh_in registry in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 30 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "obj%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  (* only the freshly opened active log remains in .pass *)
  let lower = Ext3.ops ext3 in
  let pass_dir = Helpers.ok_fs (Vfs.lookup_path lower "/.pass") in
  let names = Helpers.ok_fs (lower.readdir pass_dir) in
  check tbool "processed logs were deleted" true (List.length names <= 1);
  check tbool "logs were processed" true (Helpers.count registry "waldo.logs_processed" >= 1)

let test_txn_commit () =
  let registry = Telemetry.create () in
  let _ctx, _ext3, lasagna, waldo = fresh_in registry in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  (* write two chunks inside txn 7, then the ENDTXN *)
  let chunk recs = [ Dpapi.entry h recs ] in
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:7 lasagna h ~off:0 ~data:None
          (chunk [ Record.make "PARAMS" (Pvalue.Str "one") ]))
      : int);
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:7 lasagna h ~off:0 ~data:None
          (chunk [ Record.make "PARAMS" (Pvalue.Str "two") ]))
      : int);
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:7 lasagna h ~off:0 ~data:None
          (chunk [ Record.make Record.Attr.endtxn (Pvalue.Int 7) ]))
      : int);
  let orphans = Waldo.finalize waldo lasagna in
  check tint "no orphans" 0 orphans;
  check tint "txn committed" 1 (Helpers.count registry "waldo.txns_committed");
  let quads = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
  check tbool "txn contents ingested" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "one") quads
    && List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "two") quads)

let test_txn_orphan () =
  let _ctx, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:9 lasagna h ~off:0 ~data:None
          [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "never") ] ])
      : int);
  let orphans = Waldo.finalize waldo lasagna in
  check tint "one orphan" 1 orphans;
  let quads = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
  check tbool "orphan contents dropped" false
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "never") quads)

let test_interleaved_txns () =
  (* two transactions interleaved in the log; one commits, one orphans *)
  let _ctx, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  let send txn tag =
    ignore
      (Helpers.ok
         (Lasagna.write_txn_bundle ~txn lasagna h ~off:0 ~data:None
            [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str tag) ] ])
        : int)
  in
  send 1 "a1";
  send 2 "b1";
  send 1 "a2";
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:1 lasagna h ~off:0 ~data:None
          [ Dpapi.entry h [ Record.make Record.Attr.endtxn (Pvalue.Int 1) ] ])
      : int);
  let orphans = Waldo.finalize waldo lasagna in
  check tint "txn 2 orphaned" 1 orphans;
  let quads = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
  let has tag = List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str tag) quads in
  check tbool "committed chunks present" true (has "a1" && has "a2");
  check tbool "orphan chunks absent" false (has "b1")

let test_merge_into () =
  let db1 = Provdb.create () in
  let db2 = Provdb.create () in
  let alloc = Pnode.allocator ~machine:5 in
  let a = Pnode.fresh alloc and b = Pnode.fresh alloc in
  Provdb.set_file db1 a ~name:"a.txt";
  Provdb.set_file db2 b ~name:"b.txt";
  Provdb.add_record db2 b ~version:0 (Record.input_of a 0);
  let merged = Provdb.create () in
  Provdb.merge_into ~dst:merged ~src:db1;
  Provdb.merge_into ~dst:merged ~src:db2;
  check tint "both names findable" 1 (List.length (Provdb.find_by_name merged "a.txt"));
  check tbool "cross-db edge intact" true
    (List.exists (fun (_, (x : Pvalue.xref)) -> Pnode.equal x.pnode a)
       (Provdb.out_edges merged b ~version:0));
  check tbool "merged acyclic" true (Provdb.is_acyclic merged)

let test_persist_and_load () =
  let _ctx, ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok
    (Dpapi.disclose ep h
       [ Record.name "persisted-obj"; Record.make "PARAMS" (Pvalue.Strs [ "x"; "y" ]) ]);
  ignore (Waldo.finalize waldo lasagna : int);
  (* daemon checkpoints its database to disk and "restarts"; without a
     checkpoint policy the processed logs are gone, so everything comes
     back from the image *)
  Helpers.ok_fs (Waldo.checkpoint waldo);
  let reborn, _info =
    Helpers.ok_fs (Waldo.recover ~registry:(Telemetry.create ()) ~lower:(Ext3.ops ext3) ())
  in
  let db = Waldo.db reborn in
  check tint "name index rebuilt" 1 (List.length (Provdb.find_by_name db "persisted-obj"));
  let quads = Provdb.records_all db h.Dpapi.pnode in
  check tint "records preserved" 2 (List.length quads);
  check tbool "values intact" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Strs [ "x"; "y" ]) quads)

let test_provdb_serialize_roundtrip () =
  let db, _, _, _, out, _ = Test_pql.sample_db () in
  let image = Provdb.serialize db in
  let db2 = Provdb.deserialize image in
  check tint "node count preserved" (Provdb.node_count db) (Provdb.node_count db2);
  check tint "quad count preserved" (Provdb.quad_count db) (Provdb.quad_count db2);
  check tbool "edges preserved" true
    (Provdb.out_edges db2 out ~version:0 = Provdb.out_edges db out ~version:0);
  check tbool "acyclic preserved" true (Provdb.is_acyclic db2);
  (* corrupt images are rejected *)
  (match Provdb.deserialize "garbage-bytes" with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt image accepted")

let test_size_accounting () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:6 in
  let p = Pnode.fresh alloc in
  Provdb.set_file db p ~name:"sized.bin";
  let before_db = Provdb.db_bytes db and before_idx = Provdb.index_bytes db in
  for i = 0 to 99 do
    Provdb.add_record db p ~version:i (Record.make "PARAMS" (Pvalue.Str (string_of_int i)))
  done;
  check tbool "db bytes grow" true (Provdb.db_bytes db > before_db + 1000);
  check tbool "index bytes grow" true (Provdb.index_bytes db > before_idx + 1000);
  (* re-ingesting records at an already-indexed (pnode, version, attr)
     must not grow the attr index: postings are deduplicated at insert *)
  let idx = Provdb.index_bytes db in
  Provdb.add_record db p ~version:0 (Record.make "PARAMS" (Pvalue.Str "dup"));
  check tint "duplicate posting not re-indexed" idx (Provdb.index_bytes db);
  check tint "attr cardinality is distinct entries" 100 (Provdb.attr_cardinality db "params");
  check tint "total = db + idx" (Provdb.total_bytes db)
    (Provdb.db_bytes db + Provdb.index_bytes db)

let test_index_accessors () =
  let db, in1, _in2, proc, out, _ = Test_pql.sample_db () in
  (* the attribute index finds every (pnode, version) carrying an attr *)
  let freezes = Provdb.with_attr db Record.Attr.freeze in
  check tint "one FREEZE occurrence" 1 (List.length freezes);
  check tbool "freeze is on out v1" true (List.mem (out, 1) freezes);
  (* point lookup of an attribute value *)
  (match Provdb.attr_value db proc ~version:0 "NAME" with
  | Some (Pvalue.Str "kepler") -> ()
  | _ -> Alcotest.fail "attr_value NAME");
  check tbool "missing attr is None" true
    (Provdb.attr_value db in1 ~version:0 "ARGV" = None);
  (* reverse index includes the referenced version *)
  let refs = Provdb.in_edges db in1 in
  check tbool "in_edges carries referenced version" true
    (List.exists (fun (src, _sv, attr, dv) -> src = proc && attr = "INPUT" && dv = 0) refs)

let test_opm_export () =
  let db, in1, _in2, proc, out, _ = Test_pql.sample_db () in
  let graph = Opm.export db in
  check Alcotest.string "root element" "opmGraph" graph.Sxml.tag;
  let arts = Option.get (Sxml.first_child graph "artifacts") in
  let procs = Option.get (Sxml.first_child graph "processes") in
  let deps = Option.get (Sxml.first_child graph "dependencies") in
  (* 4 files (out has 2 versions -> 5 artifact entries) *)
  check tint "artifact count" 5 (List.length (Sxml.children_named arts "artifact"));
  check tint "process count" 1 (List.length (Sxml.children_named procs "process"));
  (* out v0 <- kepler  =>  wasGeneratedBy; kepler <- in1  =>  used *)
  check tbool "wasGeneratedBy present" true
    (Sxml.children_named deps "wasGeneratedBy" <> []);
  check tbool "used present" true (Sxml.children_named deps "used" <> []);
  check tbool "version edge is wasDerivedFrom" true
    (Sxml.children_named deps "wasDerivedFrom" <> []);
  (* the export is well-formed XML: parse it back *)
  let reparsed = Sxml.parse (Opm.to_string db) in
  check Alcotest.string "reparses" "opmGraph" reparsed.Sxml.tag;
  ignore (in1, proc, out : Pnode.t * Pnode.t * Pnode.t)

(* ------------------------------------------------------------------ *)
(* Checkpoint era: crash-safe persist, retention policies, truncation,
   and bounded recovery.  These rigs expose the disk so tests can pull
   the plug at a chosen write tick. *)

let fresh_ckpt ?policy ?compact_keep ?(log_max = 512) () =
  let registry = Telemetry.create () in
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~log_max ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Simdisk.Clock.advance clock) ()
  in
  let waldo = Waldo.create ~registry ?policy ?compact_keep ~lower:(Ext3.ops ext3) () in
  Waldo.attach waldo lasagna;
  ignore (ctx : Ctx.t);
  (disk, ext3, lasagna, waldo)

let pass_logs lower =
  match Vfs.lookup_path lower "/.pass" with
  | Error _ -> []
  | Ok dir ->
      List.filter
        (fun n -> Checkpoint.log_seq n <> None)
        (Helpers.ok_fs (lower.Vfs.readdir dir))

(* A checkpoint stages its files and commits with the manifest rename,
   so a crash at ANY write tick of a second checkpoint leaves a fully
   recoverable generation — the old one or the new one, never a torn
   hybrid. *)
let test_persist_atomic_under_crash () =
  let populate () =
    let disk, ext3, lasagna, waldo = fresh_ckpt () in
    let ep = Lasagna.endpoint lasagna in
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok
      (Dpapi.disclose ep h
         [ Record.name "stable"; Record.make "PARAMS" (Pvalue.Str "v1") ]);
    ignore (Waldo.finalize waldo lasagna : int);
    Helpers.ok_fs (Waldo.checkpoint waldo);
    (* mutate the db so the second image differs from the first *)
    Provdb.add_record (Waldo.db waldo) h.Dpapi.pnode ~version:0
      (Record.make "PARAMS" (Pvalue.Str "v2"));
    (disk, ext3, waldo, h)
  in
  let recover lower = Waldo.recover ~registry:(Telemetry.create ()) ~lower () in
  (* measure how many block writes a clean second checkpoint costs *)
  let checkpoint_writes =
    let disk, _ext3, waldo, _h = populate () in
    let before = (Simdisk.Disk.stats disk).writes in
    Helpers.ok_fs (Waldo.checkpoint waldo);
    (Simdisk.Disk.stats disk).writes - before
  in
  check tbool "second checkpoint issues writes" true (checkpoint_writes > 0);
  for k = 1 to checkpoint_writes do
    let disk, _ext3, waldo, h = populate () in
    Simdisk.Disk.schedule_crash disk ~after_writes:k;
    (match Waldo.checkpoint waldo with
    | Ok () | Error _ -> ());
    Simdisk.Disk.revive disk;
    let ext3 = Ext3.mount disk in
    let reborn, _info = Helpers.ok_fs (recover (Ext3.ops ext3)) in
    let quads = Provdb.records_all (Waldo.db reborn) h.Dpapi.pnode in
    let n = List.length quads in
    if n <> 2 && n <> 3 then
      Alcotest.failf "crash at write %d: recovered %d records (want 2 or 3)" k n
  done;
  (* a tampered image is rejected outright, never half-loaded: garbage
     in the image file, and a well-framed image whose digest is not the
     one the MANIFEST recorded *)
  let image = Checkpoint.dir ^ "/" ^ Checkpoint.image_name ~gen:1 in
  let tampered write =
    let _disk, ext3, _waldo, _h = populate () in
    let lower = Ext3.ops ext3 in
    write lower;
    match recover lower with
    | Error Vfs.EIO -> ()
    | Ok _ -> Alcotest.fail "tampered image accepted"
    | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.errno_to_string e)
  in
  tampered (fun lower -> ignore (Helpers.ok_fs (Vfs.write_file lower image "garbage") : Vfs.ino));
  tampered (fun lower ->
      let other = Provdb.serialize (Provdb.create ()) in
      ignore (Helpers.ok_fs (Checkpoint.write_atomic lower ~path:image other) : string))

let test_manual_checkpoint_truncates () =
  let _disk, ext3, lasagna, waldo =
    fresh_ckpt ~policy:Waldo.Manual ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 30 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "obj%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  let lower = Ext3.ops ext3 in
  let retained = pass_logs lower in
  check tbool "Manual policy retains processed logs" true (List.length retained > 1);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  let after = pass_logs lower in
  check tbool "checkpoint truncates covered logs" true
    (List.length after < List.length retained);
  match Helpers.ok_fs (Checkpoint.read_manifest lower) with
  | None -> Alcotest.fail "manifest missing after checkpoint"
  | Some m ->
      check tint "first generation" 1 m.Checkpoint.m_gen;
      check tbool "watermark advanced" true (m.Checkpoint.m_watermark >= 1);
      List.iter
        (fun n ->
          match Checkpoint.log_seq n with
          | Some s when s < m.Checkpoint.m_watermark ->
              Alcotest.failf "covered log %s survived truncation" n
          | _ -> ())
        after

let test_every_frames_auto_checkpoint () =
  let _disk, ext3, lasagna, waldo =
    fresh_ckpt ~policy:(Waldo.Every_frames 8) ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 40 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "auto%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  match Helpers.ok_fs (Checkpoint.read_manifest (Ext3.ops ext3)) with
  | Some m -> check tbool "auto checkpoint committed" true (m.Checkpoint.m_gen >= 1)
  | None -> Alcotest.fail "Every_frames never checkpointed"

(* Full round trip: version history -> checkpoint (with compaction to a
   cold archive) -> suffix traffic -> crash -> recover.  The recovered
   graph, after faulting the archive back in, must serialize to exactly
   the pre-crash bytes, and the recovery report must show a bounded
   (suffix-only) replay. *)
let test_checkpoint_recover_roundtrip () =
  let disk, _ext3, lasagna, waldo =
    fresh_ckpt ~policy:Waldo.Manual ~compact_keep:1 ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  let hs =
    Array.init 4 (fun i ->
        let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
        Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "ck%d" i) ]);
        h)
  in
  for round = 1 to 3 do
    Array.iter
      (fun h ->
        Helpers.ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Int round) ]);
        ignore (Helpers.ok (ep.pass_freeze h) : int))
      hs
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  (* post-checkpoint suffix traffic, committed to its own log *)
  Helpers.ok (Dpapi.disclose ep hs.(0) [ Record.make "PARAMS" (Pvalue.Str "suffix") ]);
  Lasagna.flush_log lasagna;
  Waldo.fault_in_archive waldo;
  let reference = Provdb.serialize (Waldo.db waldo) in
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  let ext3 = Ext3.mount disk in
  let w2, info =
    Helpers.ok_fs (Waldo.recover ~registry:(Telemetry.create ()) ~lower:(Ext3.ops ext3) ())
  in
  check tbool "manifest found" true (info.Waldo.ri_gen > 0);
  check tint "recovered generation" 1 info.Waldo.ri_gen;
  check tint "covered logs already truncated" 0 info.Waldo.ri_logs_skipped;
  check tbool "suffix logs replayed" true (info.Waldo.ri_logs_replayed >= 1);
  check tbool "replay is bounded to the suffix" true (info.Waldo.ri_frames_replayed <= 4);
  check tbool "archive segment registered" true (info.Waldo.ri_archives >= 1);
  check tbool "cold tier not loaded eagerly" false (Provdb.cold_loaded (Waldo.db w2));
  Waldo.fault_in_archive w2;
  check tbool "recovered graph equals pre-crash graph" true
    (String.equal reference (Provdb.serialize (Waldo.db w2)))

(* --- checkpoint images unchanged ------------------------------------------ *)

(* A Vfs.ops that notes every file it publishes: each rename's target is
   read back and its name and MD5 noted, so every image, archive segment,
   sidecar and MANIFEST a checkpoint writes lands in the trace. *)
let publishing_ops (base : Vfs.ops) note =
  {
    base with
    Vfs.rename =
      (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
        let r = base.Vfs.rename ~src_dir ~src_name ~dst_dir ~dst_name in
        (match r with
        | Ok () ->
            let ino = Helpers.ok_fs (base.Vfs.lookup ~dir:dst_dir dst_name) in
            let st = Helpers.ok_fs (base.Vfs.getattr ino) in
            let data = Helpers.ok_fs (base.Vfs.read ino ~off:0 ~len:st.Vfs.st_size) in
            note (Printf.sprintf "publish %s %s" dst_name (Digest.to_hex (Digest.string data)))
        | Error _ -> ());
        r);
  }

(* A WAP bundle frame of [records] about [p], fed to Waldo directly. *)
let bundle p records =
  Wap_log.Bundle { txn = None; bundle = [ Dpapi.entry (Dpapi.handle p) records ]; data = None }

let golden_attrs =
  [ "NAME"; "TYPE"; "note"; "REV"; "INPUT"; "FREEZE"; "PARAMS"; "BEGINTXN"; "ENDTXN" ]

(* Everything the query layer can read of [db], in a canonical order,
   read without faulting the archive in: a no-op fault handler stands in
   while the dump runs, then the checkpoint's segments are re-armed. *)
let golden_dump lower db names =
  Provdb.set_fault_handler db (fun _ -> false);
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  let pnodes l = String.concat "," (List.map (fun p -> string_of_int (Pnode.to_int p)) l) in
  let nodes =
    List.sort (fun (a : Provdb.node) c -> Pnode.compare a.pnode c.pnode) (Provdb.all_nodes db)
  in
  List.iter
    (fun (n : Provdb.node) ->
      let p = n.pnode in
      pr "node %d %s %b %S %d %d\n" (Pnode.to_int p)
        (match n.kind with Provdb.File -> "file" | Provdb.Virtual -> "virtual")
        n.declared
        (Option.value n.node_name ~default:"<none>")
        n.max_version n.floor;
      pr " parents %s children %s\n"
        (pnodes (List.sort Pnode.compare (Provdb.parents_of db p)))
        (pnodes (List.sort Pnode.compare (Provdb.children_of db p)));
      List.iter
        (fun (src, sv, a, dv) -> pr " in %d.%d %s %d\n" (Pnode.to_int src) sv a dv)
        (List.sort
           (fun (p1, v1, a1, d1) (p2, v2, a2, d2) ->
             match Pnode.compare p1 p2 with
             | 0 -> (
                 match Int.compare v1 v2 with
                 | 0 -> ( match String.compare a1 a2 with 0 -> Int.compare d1 d2 | c -> c)
                 | c -> c)
             | c -> c)
           (Provdb.in_edges db p));
      List.iter
        (fun v ->
          List.iter
            (fun (q : Provdb.quad) -> pr " %d: %s=%s\n" v q.q_attr (Format.asprintf "%a" Pvalue.pp q.q_value))
            (Provdb.records_at db p ~version:v))
        (Provdb.resident_versions db p))
    nodes;
  List.iter
    (fun a ->
      pr "attr %s %d [%s]\n" a (Provdb.attr_cardinality db a)
        (String.concat ","
           (List.map (fun (p, v) -> Printf.sprintf "%d.%d" (Pnode.to_int p) v) (Provdb.with_attr db a))))
    golden_attrs;
  List.iter (fun nm -> pr "alias %s %s\n" nm (pnodes (Provdb.find_by_name db nm))) names;
  pr "counts %d %d %d %d %d %d %b %b\n" (Provdb.node_count db) (Provdb.quad_count db)
    (Provdb.edge_count db) (Provdb.file_count db) (Provdb.db_bytes db) (Provdb.index_bytes db)
    (Provdb.has_cold db) (Provdb.cold_loaded db);
  (match Helpers.ok_fs (Checkpoint.read_manifest lower) with
  | Some m -> Archive.install_handler ~registry:(Telemetry.create ()) lower
      ~segments:m.Checkpoint.m_archives db
  | None -> ());
  Buffer.contents b

(* One pinned history: virtual objects disclosed through Lasagna, two
   files and an object ingested as raw frames (a file and the object
   first named "" by NAME records, a file named by a NAME record before
   its Map frame), a transaction open
   across a checkpoint, an archive fault-in after round 3 and a crash
   and recovery after round 4.  Returns the trace: every published file,
   the byte counters after every round, and a dump of the db. *)
let golden_trace ~policy ?compact_keep () =
  let registry = Telemetry.create () in
  let trace = Buffer.create 4096 in
  let note s =
    Buffer.add_string trace s;
    Buffer.add_char trace '\n'
  in
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let mount ext3 machine =
    let lasagna =
      Lasagna.create ~registry ~log_max:256 ~lower:(Ext3.ops ext3) ~ctx:(Ctx.create ~machine)
        ~volume:"vol0" ~charge:(Simdisk.Clock.advance clock) ()
    in
    (lasagna, Lasagna.endpoint lasagna, publishing_ops (Ext3.ops ext3) note)
  in
  let lasagna, ep, lower = mount (Ext3.format disk) 1 in
  let lasagna = ref lasagna and ep = ref ep and lower = ref lower in
  let waldo = ref (Waldo.create ~registry ~policy ?compact_keep ~lower:!lower ()) in
  Waldo.attach !waldo !lasagna;
  let objs = ref [||] and first = ref 0 and versions = Hashtbl.create 64 in
  let names = ref [] in
  let version h = Option.value (Hashtbl.find_opt versions h.Dpapi.pnode) ~default:0 in
  let new_obj i =
    let h = Helpers.ok (!ep.Dpapi.pass_mkobj ~volume:(Some "vol0")) in
    let name = Printf.sprintf "obj%d" i in
    names := name :: !names;
    let parent =
      if Array.length !objs = 0 then []
      else
        let ph = !objs.((i * 7) mod Array.length !objs) in
        [ Record.input_of ph.Dpapi.pnode (version ph) ]
    in
    Helpers.ok
      (Dpapi.disclose !ep h
         ([ Record.name name; Record.typ "artifact"; Record.make "note" (Pvalue.Str name) ] @ parent));
    objs := Array.append !objs [| h |]
  in
  let revise h round =
    Helpers.ok
      (Dpapi.disclose !ep h
         [ Record.make "REV" (Pvalue.Int round); Record.make "rev" (Pvalue.Int (round * 10)) ]);
    Hashtbl.replace versions h.Dpapi.pnode (Helpers.ok (!ep.Dpapi.pass_freeze h))
  in
  let f1 = Pnode.of_int 900_001 and f2 = Pnode.of_int 900_002 and f3 = Pnode.of_int 900_003 in
  let file_round round =
    let target = !objs.(round mod Array.length !objs) in
    let edge = Record.input_of target.Dpapi.pnode (version target) in
    let freeze = Record.make Record.Attr.freeze (Pvalue.Int round) in
    Waldo.replay_frames !waldo
      ([ bundle f1 ([ freeze; edge; Record.make "Note" (Pvalue.Int round) ]
                    @ if round = 1 then [ Record.name "f1-late" ] else []);
         bundle f2 [ freeze; edge; Record.name (Printf.sprintf "f2-r%d" round) ];
         bundle f3 ([ freeze ] @ if round = 1 then [ Record.name "f3-late" ] else []) ])
  in
  names := [ "f1-late"; "f3-late"; "f2"; "f2-r1"; "f2-r2"; "f2-r3"; "f2-r4"; "f2-r5"; "f2-r6" ] @ !names;
  Waldo.replay_frames !waldo
    [ bundle f1 [ Record.name "" ]; Wap_log.Map { pnode = f1; ino = 0; name = "" };
      bundle f2 [ Record.name "f2" ]; Wap_log.Map { pnode = f2; ino = 0; name = "f2" };
      Wap_log.Mkobj { pnode = f3 }; bundle f3 [ Record.name "" ] ];
  for i = 0 to 5 do new_obj i done;
  for round = 1 to 6 do
    for i = 0 to 2 do new_obj ((round * 10) + i) done;
    (* only objects of the current Lasagna's ctx are revised *)
    for k = 0 to 3 do
      let n = Array.length !objs - !first in
      revise !objs.(!first + (((round * 5) + (k * 3)) mod n)) round
    done;
    file_round round;
    let txn_target = !objs.(1) in
    if round = 2 then
      ignore
        (Helpers.ok
           (Lasagna.write_txn_bundle ~txn:7 !lasagna txn_target ~off:0 ~data:None
              [ Dpapi.entry txn_target [ Record.make "PARAMS" (Pvalue.Str "in-flight") ] ])
          : int);
    if round = 5 then
      ignore
        (Helpers.ok
           (Lasagna.write_txn_bundle ~txn:7 !lasagna txn_target ~off:0 ~data:None
              [ Dpapi.entry txn_target [ Record.make Record.Attr.endtxn (Pvalue.Int 7) ] ])
          : int);
    Lasagna.flush_log !lasagna;
    (match policy with Waldo.Manual -> Helpers.ok_fs (Waldo.checkpoint !waldo) | _ -> ());
    let db = Waldo.db !waldo in
    note
      (Printf.sprintf "round %d db_bytes %d index_bytes %d" round (Provdb.db_bytes db)
         (Provdb.index_bytes db));
    if round = 3 then Waldo.fault_in_archive !waldo;
    note (Digest.to_hex (Digest.string (golden_dump !lower (Waldo.db !waldo) !names)));
    if round = 4 then begin
      Simdisk.Disk.crash disk;
      Simdisk.Disk.revive disk;
      let l, e, lw = mount (Ext3.mount disk) 2 in
      lasagna := l;
      ep := e;
      lower := lw;
      let w, info = Helpers.ok_fs (Waldo.recover ~registry ~policy ?compact_keep ~lower:lw ()) in
      note (Printf.sprintf "recovered gen %d archives %d" info.Waldo.ri_gen info.Waldo.ri_archives);
      waldo := w;
      first := Array.length !objs;
      Waldo.attach w l
    end
  done;
  Buffer.contents trace

let golden_runs =
  [
    ("every16-keep1", Waldo.Every_frames 16, Some 1, "f4519f016cf7bc8525de0b309826b087");
    ("every16-keep2", Waldo.Every_frames 16, Some 2, "f3bf1d009624abaaa9df139aa90439b7");
    ("every16-all", Waldo.Every_frames 16, None, "4c2b88a7049ee7c6c1a7ae870b5df230");
    ("manual-keep1", Waldo.Manual, Some 1, "983d2860df2016e5a13776b50b18fc64");
    ("manual-keep2", Waldo.Manual, Some 2, "9a4367222b58846bb3fd22e01e4cd920");
    ("manual-all", Waldo.Manual, None, "a43c5d3d7976993df9754cf1d34e6668");
  ]

(* Checkpoints write their images straight from the live db and expire
   in place; the golden digests were taken when each checkpoint rebuilt
   fresh hot and cold dbs instead, so every published byte, both byte
   counters and everything queries read must match that rebuild. *)
let test_checkpoint_images_unchanged () =
  List.iter
    (fun (name, policy, compact_keep, want) ->
      let trace = golden_trace ~policy ?compact_keep () in
      let has s =
        let n = String.length s in
        let rec go i = i + n <= String.length trace && (String.equal (String.sub trace i n) s || go (i + 1)) in
        go 0
      in
      check tbool (name ^ ": a sidecar was published") true (has "publish pending.");
      check tbool (name ^ ": archives iff compacting") (compact_keep <> None) (has "publish archive.");
      check Alcotest.string (name ^ ": trace digest") want (Digest.to_hex (Digest.string trace)))
    golden_runs

(* WAP log names are exactly Lasagna.log_name's: near-misses that
   int_of_string would accept are other files, which checkpoint
   truncation must not delete and recovery must not replay.  The
   checkpoint's watermark falls between the near-misses' values, so a
   lax parse shows up in both: the ones below it as deleted, the one
   above it as replayed. *)
let test_log_seq_exact () =
  let seq = Alcotest.(option int) in
  check seq "log.0" (Some 0) (Checkpoint.log_seq "log.0");
  check seq "log.17" (Some 17) (Checkpoint.log_seq "log.17");
  let bogus = [ "log.-1"; "log.0x10"; "log.007"; "log.1_0"; "log.+3" ] in
  List.iter (fun n -> check seq n None (Checkpoint.log_seq n)) bogus;
  let disk, ext3, lasagna, waldo = fresh_ckpt ~policy:Waldo.Manual ~log_max:256 () in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 59 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "seq%d" i) ])
  done;
  Lasagna.flush_log lasagna;
  let lower = Ext3.ops ext3 in
  (* each near-miss holds a real log's frames, so a replay would show *)
  let frames = Helpers.ok_fs (Vfs.read_file lower "/.pass/log.0") in
  List.iter
    (fun n -> ignore (Helpers.ok_fs (Vfs.write_file lower ("/.pass/" ^ n) frames) : Vfs.ino))
    bogus;
  let present () =
    let names = Helpers.ok_fs (lower.Vfs.readdir (Helpers.ok_fs (Vfs.lookup_path lower "/.pass"))) in
    List.filter (fun n -> List.mem n names) bogus
  in
  Helpers.ok_fs (Waldo.checkpoint waldo);
  check (Alcotest.list Alcotest.string) "truncation leaves near-misses alone" bogus (present ());
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok (Dpapi.disclose ep h [ Record.name "suffix" ]);
  Lasagna.flush_log lasagna;
  (* truncation took the covered logs: what is left is the suffix *)
  let suffix =
    List.filter
      (fun n -> String.length n > 4 && String.equal (String.sub n 0 4) "log." && not (List.mem n bogus))
      (Helpers.ok_fs (lower.Vfs.readdir (Helpers.ok_fs (Vfs.lookup_path lower "/.pass"))))
  in
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  let lower = Ext3.ops (Ext3.mount disk) in
  let _w, info =
    Helpers.ok_fs (Waldo.recover ~registry:(Telemetry.create ()) ~policy:Waldo.Manual ~lower ())
  in
  check tbool "a suffix was logged" true (suffix <> []);
  check tint "only the real suffix logs are replayed" (List.length suffix) info.Waldo.ri_logs_replayed;
  check tint "nothing covered was left" 0 info.Waldo.ri_logs_skipped;
  let names = Helpers.ok_fs (lower.Vfs.readdir (Helpers.ok_fs (Vfs.lookup_path lower "/.pass"))) in
  check (Alcotest.list Alcotest.string) "recovery leaves near-misses alone" bogus
    (List.filter (fun n -> List.mem n names) bogus)

(* --- the live db is the rebuild of its own hot image ----------------------- *)

type hop =
  | New_obj of int * int  (* name, parent *)
  | Revise of int * int  (* object, name *)
  | Declare_file of int * int  (* object, name: a Map frame *)
  | Edge of int * int
  | Ckpt
  | Fault

(* NAME records never carry "": a node named "" by one keeps that name
   where a rebuild would take a later NAME (see DESIGN §19); files may
   still be mapped under "" *)
let hop_names = [| "a"; "b"; "c"; "obj" |]
let file_names = [| ""; "a"; "b"; "f" |]
let hop_attrs = [ "NAME"; "TYPE"; "note"; "Note"; "REV"; "INPUT"; "FREEZE"; "PARAMS" ]

let gen_hops =
  QCheck2.Gen.(
    list_size (int_range 5 60)
      (frequency
         [
           (4, map2 (fun a b -> New_obj (a, b)) (int_bound 3) nat);
           (5, map2 (fun a b -> Revise (a, b)) nat (int_bound 4));
           (1, map2 (fun a b -> Declare_file (a, b)) nat (int_bound 3));
           (3, map2 (fun a b -> Edge (a, b)) nat nat);
           (2, pure Ckpt);
           (1, pure Fault);
         ]))

let print_hop = function
  | New_obj (a, b) -> Printf.sprintf "New_obj(%d,%d)" a b
  | Revise (a, b) -> Printf.sprintf "Revise(%d,%d)" a b
  | Declare_file (a, b) -> Printf.sprintf "Declare_file(%d,%d)" a b
  | Edge (a, b) -> Printf.sprintf "Edge(%d,%d)" a b
  | Ckpt -> "Ckpt"
  | Fault -> "Fault"

(* Everything the query layer reads of [db], with every index as a
   sorted set; no fault-in (a no-op handler stands in while it runs). *)
let db_view db =
  Provdb.set_fault_handler db (fun _ -> false);
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  let ps l = String.concat "," (List.map (fun p -> string_of_int (Pnode.to_int p)) (List.sort Pnode.compare l)) in
  List.iter
    (fun (n : Provdb.node) ->
      let p = n.pnode in
      pr "%d %b %b %S %d %d res=%s par=%s chi=%s\n" (Pnode.to_int p) (n.kind = Provdb.File) n.declared
        (Option.value n.node_name ~default:"-") n.max_version n.floor
        (String.concat "," (List.map string_of_int (Provdb.resident_versions db p)))
        (ps (Provdb.parents_of db p)) (ps (Provdb.children_of db p));
      List.iter (pr " in %s\n")
        (List.sort String.compare
           (List.map
              (fun (s, sv, a, dv) -> Printf.sprintf "%d.%d %s %d" (Pnode.to_int s) sv a dv)
              (Provdb.in_edges db p)));
      List.iter
        (fun v ->
          List.iter
            (fun (q : Provdb.quad) -> pr " %d %s=%s\n" v q.q_attr (Format.asprintf "%a" Pvalue.pp q.q_value))
            (Provdb.records_at db p ~version:v);
          List.iter
            (fun (a, (x : Pvalue.xref)) -> pr " %d -%s-> %d.%d\n" v a (Pnode.to_int x.pnode) x.version)
            (Provdb.out_edges db p ~version:v))
        (Provdb.resident_versions db p))
    (List.sort (fun (a : Provdb.node) c -> Pnode.compare a.pnode c.pnode) (Provdb.all_nodes db));
  Array.iter (fun nm -> pr "name %S %s\n" nm (ps (Provdb.find_by_name db nm))) (Array.append hop_names file_names);
  List.iter
    (fun a ->
      pr "attr %s %d %s\n" a (Provdb.attr_cardinality db a)
        (String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%d.%d" (Pnode.to_int p) v) (Provdb.with_attr db a))))
    hop_attrs;
  pr "%d %d %d %d %d %d %b %b\n" (Provdb.node_count db) (Provdb.quad_count db) (Provdb.edge_count db)
    (Provdb.file_count db) (Provdb.db_bytes db) (Provdb.index_bytes db) (Provdb.has_cold db)
    (Provdb.cold_loaded db);
  Buffer.contents b

(* Every version's quads, whatever their tier. *)
let history db =
  String.concat "\n"
    (List.map
       (fun (n : Provdb.node) ->
         String.concat ";"
           (List.map
              (fun (q : Provdb.quad) ->
                Format.asprintf "%d.%d %s=%a" (Pnode.to_int q.q_pnode) q.q_version q.q_attr Pvalue.pp q.q_value)
              (Provdb.records_all db n.pnode)))
       (List.sort (fun (a : Provdb.node) c -> Pnode.compare a.pnode c.pnode) (Provdb.all_nodes db)))

let prop_live_is_rebuild =
  QCheck2.Test.make ~name:"waldo: live db is the rebuild of its hot image" ~count:80
    ~print:(fun (keep, hops) ->
      Printf.sprintf "keep=%s %s"
        (match keep with Some k -> string_of_int k | None -> "none")
        (String.concat " " (List.map print_hop hops)))
    QCheck2.Gen.(pair (oneofl [ Some 1; Some 2; Some 3; None ]) gen_hops)
    (fun (compact_keep, hops) ->
      (* Probing the hot tier swaps in a no-op fault handler and re-arms
         the archive afterwards; the run without probes keeps Waldo's own
         handler, whose fault-ins must restore the whole history. *)
      let run ~probe =
        let registry = Telemetry.create () in
        let fs () =
          Ext3.ops (Ext3.format (Simdisk.Disk.create ~registry ~clock:(Simdisk.Clock.create ()) ()))
        in
        let lower = fs () in
        let w = Waldo.create ~registry ~policy:Waldo.Manual ?compact_keep ~lower () in
        (* the same frames, never compacted: the whole history *)
        let shadow = Waldo.create ~registry ~lower:(fs ()) () in
        let objs = ref [||] and versions = Hashtbl.create 16 in
        let obj i = !objs.(i mod Array.length !objs) in
        let version p = Option.value (Hashtbl.find_opt versions p) ~default:0 in
        let feed frames =
          Waldo.replay_frames w frames;
          Waldo.replay_frames shadow frames
        in
        let check_ckpt () =
          let db = Waldo.db w in
          let m = Option.get (Helpers.ok_fs (Checkpoint.read_manifest lower)) in
          let image, _ = Helpers.ok_fs (Checkpoint.read_verified lower ~path:("/.waldo/" ^ m.Checkpoint.m_db_name)) in
          let rebuilt = Provdb.deserialize image in
          (* without compaction the checkpoint leaves the db as ingested *)
          if compact_keep = None then begin
            if not (String.equal (Provdb.serialize db) image) then
              QCheck2.Test.fail_report "the full image is not the live db's serialize"
          end
          else if not (String.equal (Provdb.serialize db) (Provdb.serialize rebuilt)) then
            QCheck2.Test.fail_report "serialize of the live db differs from the rebuild's";
          if probe then begin
            let live = db_view db and want = db_view rebuilt in
            if compact_keep <> None then begin
              if not (String.equal live want) then QCheck2.Test.fail_reportf "live:\n%s\nrebuild:\n%s" live want;
              (* still under db_view's no-op handler: checks the hot tier *)
              match Provdb.verify_indexes db with
              | Ok () -> ()
              | Error e -> QCheck2.Test.fail_reportf "verify_indexes: %s" e
            end;
            Archive.install_handler ~registry lower ~segments:m.Checkpoint.m_archives db
          end
        in
        let step = function
          | New_obj (name, parent) ->
              let p = Pnode.of_int (1000 + Array.length !objs) in
              let edge =
                if Array.length !objs = 0 then []
                else
                  let q = obj parent in
                  [ Record.input_of q (version q) ]
              in
              feed
                [
                  Wap_log.Mkobj { pnode = p };
                  bundle p
                    ([ Record.name hop_names.(name); Record.typ "thing"; Record.make "note" (Pvalue.Int name) ] @ edge);
                ];
              objs := Array.append !objs [| p |]
          | Revise (i, name) when Array.length !objs > 0 ->
              let p = obj i in
              let v = version p + 1 in
              Hashtbl.replace versions p v;
              let renamed = if name < Array.length hop_names then [ Record.name hop_names.(name) ] else [] in
              feed
                [
                  bundle p
                    ([ Record.make Record.Attr.freeze (Pvalue.Int v); Record.input_of p (v - 1);
                       Record.make "REV" (Pvalue.Int v); Record.make "rev" (Pvalue.Int (-v)) ]
                    @ renamed);
                ]
          | Declare_file (i, name) when Array.length !objs > 0 ->
              feed [ Wap_log.Map { pnode = obj i; ino = 0; name = file_names.(name) } ]
          | Edge (i, j) when Array.length !objs > 0 ->
              let src = obj i and dst = obj j in
              if not (Pnode.equal src dst) then
                feed [ bundle src [ Record.input_of dst (version dst); Record.make "Note" (Pvalue.Str "e") ] ]
          | Ckpt ->
              Helpers.ok_fs (Waldo.checkpoint w);
              check_ckpt ()
          | Fault ->
              Waldo.fault_in_archive w;
              if not (String.equal (history (Waldo.db w)) (history (Waldo.db shadow))) then
                QCheck2.Test.fail_report "archive plus hot tier differ from the whole history"
          | Revise _ | Declare_file _ | Edge _ -> ()
        in
        List.iter step hops;
        step Ckpt;
        step Fault;
        true
      in
      run ~probe:true && run ~probe:false)

let prop_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xc4e7 |]) t)
    [ prop_live_is_rebuild ]

(* Only PROVDB4 loads: the same image relabelled PROVDB3 and stripped of
   its 16-byte index-stats footer (the older format) is corrupt. *)
let test_provdb_old_format_rejected () =
  let db, _, _, _, _, _ = Test_pql.sample_db () in
  let image = Provdb.serialize db in
  check Alcotest.string "magic after its length" "PROVDB4" (String.sub image 4 7);
  let v3 = Bytes.of_string (String.sub image 0 (String.length image - 16)) in
  Bytes.set v3 10 '3';
  match Provdb.deserialize (Bytes.to_string v3) with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "PROVDB3 image accepted"

(* Generation 0 means "no checkpoint": a MANIFEST that claims it is
   corrupt, and recovery refuses it rather than adopting its image. *)
let test_manifest_gen0_rejected () =
  let _disk, ext3, lasagna, waldo = fresh_ckpt ~policy:Waldo.Manual ~log_max:256 () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok (Dpapi.disclose ep h [ Record.name "gen0" ]);
  ignore (Waldo.finalize waldo lasagna : int);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  let lower = Ext3.ops ext3 in
  (match Helpers.ok_fs (Checkpoint.read_manifest lower) with
  | Some m -> Helpers.ok_fs (Checkpoint.write_manifest lower { m with Checkpoint.m_gen = 0 })
  | None -> Alcotest.fail "manifest missing after checkpoint");
  match Waldo.recover ~registry:(Telemetry.create ()) ~lower () with
  | Error Vfs.EIO -> ()
  | Ok (_, info) -> Alcotest.failf "generation-0 manifest adopted (ri_gen %d)" info.Waldo.ri_gen
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.errno_to_string e)

let suite =
  [
    Alcotest.test_case "ingestion fidelity" `Quick test_ingestion_fidelity;
    Alcotest.test_case "FREEZE drives version attribution" `Quick
      test_freeze_version_attribution;
    Alcotest.test_case "processed logs are removed" `Quick test_logs_removed_after_processing;
    Alcotest.test_case "transaction commit" `Quick test_txn_commit;
    Alcotest.test_case "transaction orphan discarded" `Quick test_txn_orphan;
    Alcotest.test_case "interleaved transactions" `Quick test_interleaved_txns;
    Alcotest.test_case "database merge" `Quick test_merge_into;
    Alcotest.test_case "persist/load across daemon restart" `Quick test_persist_and_load;
    Alcotest.test_case "provdb serialize roundtrip" `Quick test_provdb_serialize_roundtrip;
    Alcotest.test_case "size accounting" `Quick test_size_accounting;
    Alcotest.test_case "index accessors" `Quick test_index_accessors;
    Alcotest.test_case "OPM export" `Quick test_opm_export;
    Alcotest.test_case "persist is crash-atomic" `Quick test_persist_atomic_under_crash;
    Alcotest.test_case "Manual checkpoint truncates covered logs" `Quick
      test_manual_checkpoint_truncates;
    Alcotest.test_case "Every_frames auto-checkpoints" `Quick
      test_every_frames_auto_checkpoint;
    Alcotest.test_case "checkpoint/recover round trip" `Quick
      test_checkpoint_recover_roundtrip;
      Alcotest.test_case "checkpoint images unchanged" `Quick test_checkpoint_images_unchanged;
    Alcotest.test_case "log names are exact" `Quick test_log_seq_exact;
  ]
  @ prop_cases
  @ [
      Alcotest.test_case "provdb rejects PROVDB3 images" `Quick test_provdb_old_format_rejected;
      Alcotest.test_case "recover rejects a generation-0 manifest" `Quick
        test_manifest_gen0_rejected;
    ]
