(* Tests of the storage substrates: the simulated disk (cost model, crash
   injection), ext3sim (semantics + journal replay), Lasagna (stacking,
   DPAPI, WAP ordering) and crash recovery. *)

open Pass_core
module Disk = Simdisk.Disk
module Clock = Simdisk.Clock

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* --- disk ---------------------------------------------------------------- *)

let test_disk_rw () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  let b = String.make Disk.block_size 'x' in
  Disk.write_block disk 100 b;
  check tstr "block roundtrip" b (Disk.read_block disk 100);
  check tstr "unwritten reads zeros"
    (String.make Disk.block_size '\000')
    (Disk.read_block disk 101)

let test_disk_bytes_api () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  let data = Helpers.payload ~seed:1 ~len:10_000 in
  Disk.write_bytes disk ~off:12345 data;
  check tstr "byte roundtrip spanning blocks" data (Disk.read_bytes disk ~off:12345 ~len:10_000)

let test_disk_charges_time () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  Disk.write_bytes disk ~off:0 (String.make 4096 'a');
  let t1 = Clock.now clock in
  check tbool "I/O advanced the clock" true (t1 > 0);
  (* sequential write: next block, no seek *)
  let seeks1 = (Disk.stats disk).seeks in
  Disk.write_bytes disk ~off:4096 (String.make 4096 'b');
  check tint "sequential write seeks" seeks1 (Disk.stats disk).seeks;
  (* far write: seek *)
  Disk.write_bytes disk ~off:(4096 * 1_000_000) (String.make 4096 'c');
  check tbool "far write seeks" true ((Disk.stats disk).seeks > seeks1)

let test_disk_seek_cost_monotone () =
  (* a longer seek costs more time *)
  let run distance =
    let clock = Clock.create () in
    let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
    Disk.write_bytes disk ~off:0 (String.make 4096 'a');
    let before = Clock.now clock in
    Disk.write_bytes disk ~off:(4096 * distance) (String.make 4096 'b');
    Clock.now clock - before
  in
  check tbool "longer seek costs more" true (run 10_000_000 > run 1_000)

let test_disk_crash () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  Disk.write_bytes disk ~off:0 (String.make 4096 'a');
  Disk.schedule_crash disk ~after_writes:2;
  Disk.write_bytes disk ~off:4096 (String.make 4096 'b');
  Disk.write_bytes disk ~off:8192 (String.make 4096 'c');
  Alcotest.check_raises "third write crashes" Disk.Crashed (fun () ->
      Disk.write_bytes disk ~off:12288 (String.make 4096 'd'));
  check tbool "device is down" true (Disk.is_crashed disk);
  Disk.revive disk;
  check tstr "pre-crash data persists" (String.make 4096 'b')
    (Disk.read_bytes disk ~off:4096 ~len:4096);
  check tstr "post-crash data lost" (String.make 4096 '\000')
    (Disk.read_bytes disk ~off:12288 ~len:4096)

(* --- disk vs a flat-image model ----------------------------------------- *)

(* A differential check of the page store: random byte and block I/O
   (spanning blocks, and bursts of small writes to one block that outrun
   the patch bound), discards, crashes and revivals, and seeded fault
   plans, run against a flat [Bytes] image that applies each block write
   whole.  The model draws from a twin of the disk's fault plan in
   lockstep, so it knows which write tears or corrupts and which access
   fails. *)

let prop_blocks = 8
let prop_span = prop_blocks * Disk.block_size

type disk_op =
  | Write_bytes of int * string
  | Read_bytes of int * int
  | Write_block of int * string
  | Read_block of int
  | Burst of int * (int * string) list (* small writes to one block *)
  | Discard of int
  | Crash_after of int
  | Crash
  | Revive

let gen_disk_prog ~discards =
  let open QCheck2.Gen in
  let bs = Disk.block_size in
  let data len = map (fun seed -> Helpers.payload ~seed ~len) nat in
  let blk = int_bound (prop_blocks - 1) in
  let write_bytes =
    let* len = int_range 0 ((2 * bs) + 100) in
    let* off = int_range 0 (prop_span - len) in
    map (fun d -> Write_bytes (off, d)) (data len)
  in
  let read_bytes =
    let* len = int_range 0 (2 * bs) in
    map (fun off -> Read_bytes (off, len)) (int_range 0 (prop_span - len))
  in
  let small =
    let* len = int_range 1 64 in
    pair (int_bound (bs - len)) (data len)
  in
  let op =
    frequency
      ([
        (4, write_bytes);
        (3, read_bytes);
        (1, map2 (fun b d -> Write_bytes (b * bs, d)) blk (data bs));
        (1, map (fun b -> Read_bytes (b * bs, bs)) blk);
        (2, map2 (fun b d -> Write_block (b, d)) blk (data bs));
        (2, map (fun b -> Read_block b) blk);
        (1, map2 (fun b ws -> Burst (b, ws)) blk (list_size (int_range 33 48) small));
        (1, map (fun n -> Crash_after n) (int_bound 6));
        (1, return Crash);
        (1, return Revive);
      ]
      @ if discards then [ (2, map (fun b -> Discard b) blk) ] else [])
  in
  triple bool nat (list_size (int_range 1 40) op)

let prop_fault_spec =
  { Fault.quiet with
    torn_write = 60; corrupt_sector = 60; disk_read_error = 30; disk_write_error = 30 }

let prop_plan ~faulty ~seed =
  if faulty then Fault.plan ~registry:(Telemetry.create ()) ~spec:prop_fault_spec ~seed ()
  else Fault.none

(* The model: block writes land whole (or torn, or corrupted) in one flat
   image; crash and fault order follows the device contract.  A discarded
   block is zeroed in the image and flagged until it is written again;
   after the first torn or corrupted write, discards do nothing. *)
type model = {
  img : Bytes.t;
  plan : Fault.plan;
  discarded : bool array;
  mutable damaged : bool;
  mutable down : bool;
  mutable countdown : int option;
}

let model_read_block m blk =
  if m.down then raise Disk.Crashed;
  (match Fault.next_disk_fault m.plan ~now:0 ~write:false with
  | Some Fault.Read_error -> raise Disk.Io_error
  | Some _ | None -> ());
  if m.discarded.(blk) then raise Disk.Io_error;
  Bytes.sub_string m.img (blk * Disk.block_size) Disk.block_size

let model_discard m blk =
  if m.down then raise Disk.Crashed;
  if not m.damaged then begin
    Bytes.fill m.img (blk * Disk.block_size) Disk.block_size '\000';
    m.discarded.(blk) <- true
  end

let model_write_block m blk data =
  if m.down then raise Disk.Crashed;
  (match m.countdown with
  | Some 0 ->
      m.down <- true;
      raise Disk.Crashed
  | Some n -> m.countdown <- Some (n - 1)
  | None -> ());
  let base = blk * Disk.block_size and half = Disk.block_size / 2 in
  let fault = Fault.next_disk_fault m.plan ~now:0 ~write:true in
  if fault <> Some Fault.Write_error then m.discarded.(blk) <- false;
  match fault with
  | Some Fault.Write_error -> raise Disk.Io_error
  | Some Fault.Torn_write ->
      m.damaged <- true;
      Bytes.blit_string data 0 m.img base half
  | Some Fault.Corrupt_sector ->
      m.damaged <- true;
      Bytes.blit_string data 0 m.img base Disk.block_size;
      let c = Bytes.get m.img (base + half) in
      Bytes.set m.img (base + half) (Char.chr (Char.code c lxor 0xff))
  | Some Fault.Read_error | None -> Bytes.blit_string data 0 m.img base Disk.block_size

(* [f blk inblk pos n] once per block [off, off + len) touches. *)
let per_block ~off ~len f =
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / Disk.block_size and inblk = abs mod Disk.block_size in
    let n = min (Disk.block_size - inblk) (len - !pos) in
    f blk inblk !pos n;
    pos := !pos + n
  done

let model_write_bytes m ~off data =
  per_block ~off ~len:(String.length data) (fun blk inblk pos n ->
      let b = Bytes.sub m.img (blk * Disk.block_size) Disk.block_size in
      Bytes.blit_string data pos b inblk n;
      model_write_block m blk (Bytes.to_string b))

let model_read_bytes m ~off ~len =
  let out = Bytes.create len in
  per_block ~off ~len (fun blk inblk pos n ->
      Bytes.blit_string (model_read_block m blk) inblk out pos n);
  Bytes.to_string out

let disk_exec disk = function
  | Write_bytes (off, data) -> Disk.write_bytes disk ~off data; ""
  | Read_bytes (off, len) -> Disk.read_bytes disk ~off ~len
  | Write_block (blk, data) -> Disk.write_block disk blk data; ""
  | Read_block blk -> Disk.read_block disk blk
  | Burst (blk, writes) ->
      List.iter
        (fun (off, piece) -> Disk.write_bytes disk ~off:((blk * Disk.block_size) + off) piece)
        writes;
      ""
  | Discard blk -> Disk.discard disk blk; ""
  | Crash_after n -> Disk.schedule_crash disk ~after_writes:n; ""
  | Crash -> Disk.crash disk; ""
  | Revive -> Disk.revive disk; ""

let model_exec m = function
  | Write_bytes (off, data) -> model_write_bytes m ~off data; ""
  | Read_bytes (off, len) -> model_read_bytes m ~off ~len
  | Write_block (blk, data) -> model_write_block m blk data; ""
  | Read_block blk -> model_read_block m blk
  | Burst (blk, writes) ->
      List.iter
        (fun (off, piece) -> model_write_bytes m ~off:((blk * Disk.block_size) + off) piece)
        writes;
      ""
  | Discard blk -> model_discard m blk; ""
  | Crash_after n -> m.countdown <- Some n; ""
  | Crash -> m.down <- true; ""
  | Revive ->
      m.down <- false;
      m.countdown <- None;
      ""

let outcome f =
  match f () with
  | s -> Ok s
  | exception Disk.Crashed -> Error "crashed"
  | exception Disk.Io_error -> Error "eio"

(* Run one program on a fresh device and on the model; [true] when every
   op agreed (result or exception) and the final images are equal, block
   by block (a discarded block reads as EIO on both). *)
let run_disk_prog (faulty, seed, ops) =
  let clock = Clock.create () in
  let disk =
    Disk.create ~registry:(Telemetry.create ()) ~total_blocks:prop_blocks
      ~fault:(prop_plan ~faulty ~seed) ~clock ()
  in
  let m =
    { img = Bytes.make prop_span '\000'; plan = prop_plan ~faulty ~seed;
      discarded = Array.make prop_blocks false; damaged = false; down = false; countdown = None }
  in
  let agreed =
    List.for_all
      (fun op ->
        let d = outcome (fun () -> disk_exec disk op) in
        let e = outcome (fun () -> model_exec m op) in
        d = e)
      ops
  in
  Disk.revive disk;
  Disk.set_fault disk Fault.none;
  let same_image =
    List.for_all
      (fun blk ->
        outcome (fun () -> Disk.read_block disk blk)
        = outcome (fun () ->
              model_read_block { m with plan = Fault.none; down = false } blk))
      (List.init prop_blocks Fun.id)
  in
  (agreed && same_image, clock, disk)

let prop_disk_matches_model =
  QCheck2.Test.make ~name:"disk: page store matches a flat-image model" ~count:300
    (gen_disk_prog ~discards:true) (fun prog ->
      let ok, _, _ = run_disk_prog prog in
      ok)

(* [prog] with the target of every whole-block write discarded just
   before it: a program whose costs the discards must leave alone. *)
let discard_before_writes (faulty, seed, ops) =
  let discard = function Write_block (b, _) as op -> [ Discard b; op ] | op -> [ op ] in
  (faulty, seed, List.concat_map discard ops)

(* The page store must not move the cost model: over a pinned set of
   programs, the simulated clock and every disk counter equal the values
   the copying implementation produced, with or without discards
   interleaved. *)
let test_disk_costs_unchanged () =
  let progs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 0xd15c |]) ~n:100
      (gen_disk_prog ~discards:false)
  in
  let sums progs =
    let sums = Array.make 8 0 in
    List.iter
      (fun prog ->
        let ok, clock, disk = run_disk_prog prog in
        check tbool "program agrees with the model" true ok;
        let s = Disk.stats disk in
        List.iteri
          (fun k v -> sums.(k) <- sums.(k) + v)
          [ Clock.now clock; s.reads; s.writes; s.bytes_read; s.bytes_written; s.seeks;
            s.seek_ns; s.transfer_ns ])
      progs;
    Array.to_list sums
  in
  let golden = [ 1938122137; 1470; 3185; 6021120; 13045760; 100; 1621887137; 144235000 ] in
  check Alcotest.(list int)
    "clock, reads, writes, bytes read/written, seeks, seek/transfer ns" golden (sums progs);
  check Alcotest.(list int) "the same, with discards interleaved" golden
    (sums (List.map discard_before_writes progs))

(* A discard is free: on a faulty device with a crash scheduled, block
   I/O with a discard before every access charges the same time and
   counters, draws the same fault schedule and crashes at the same write
   as without. *)
let test_disk_discard_is_free () =
  let run ~discards =
    let clock = Clock.create () in
    let plan = prop_plan ~faulty:true ~seed:7 in
    let disk =
      Disk.create ~registry:(Telemetry.create ()) ~total_blocks:prop_blocks ~fault:plan ~clock ()
    in
    Disk.schedule_crash disk ~after_writes:150;
    let crashed_at = ref (-1) in
    (try
       for k = 0 to 399 do
         let blk = k * 5 mod prop_blocks in
         if discards then Disk.discard disk blk;
         match
           if k mod 3 = 0 then ignore (Disk.read_block disk blk : string)
           else Disk.write_block disk blk (Helpers.payload ~seed:k ~len:Disk.block_size)
         with
         | () -> ()
         | exception Disk.Io_error -> ()
       done
     with Disk.Crashed -> crashed_at := (Disk.stats disk).writes);
    let s = Disk.stats disk in
    ( [ Clock.now clock; s.reads; s.writes; s.seeks; s.seek_ns; s.transfer_ns; !crashed_at ],
      Fault.events plan )
  in
  let costs, events = run ~discards:false and costs', events' = run ~discards:true in
  check tbool "faults fired" true (events <> []);
  check Alcotest.(list int) "clock, counters and crash tick" costs costs';
  check Alcotest.(list string) "fault schedule" events events'

let test_disk_discard () =
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock:(Clock.create ()) () in
  let page = String.make Disk.block_size 'p' in
  Disk.write_block disk 10 page;
  Disk.write_block disk 11 page;
  check tint "two resident" 2 (Disk.resident_blocks disk);
  Disk.discard disk 10;
  check tint "one resident" 1 (Disk.resident_blocks disk);
  Alcotest.check_raises "discarded block reads as EIO" Disk.Io_error (fun () ->
      ignore (Disk.read_block disk 10 : string));
  Disk.write_bytes disk ~off:((10 * Disk.block_size) + 5) "xy";
  check tstr "a patch lands on the zero page"
    (String.make 5 '\000' ^ "xy" ^ String.make (Disk.block_size - 7) '\000')
    (Disk.read_block disk 10);
  check tstr "untouched neighbour" page (Disk.read_block disk 11)

(* --- ext3 ---------------------------------------------------------------- *)

let test_ext3_basics () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let ino = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/a/b/hello.txt" "hello world") in
  check tbool "ino allocated" true (ino > 0);
  check tstr "read back" "hello world" (Helpers.ok_fs (Vfs.read_file ops "/a/b/hello.txt"));
  let st = Helpers.ok_fs (ops.getattr ino) in
  check tint "size" 11 st.Vfs.st_size;
  check tbool "dir listing" true
    (List.mem "hello.txt" (Helpers.ok_fs (ops.readdir (Helpers.ok_fs (Vfs.lookup_path ops "/a/b")))))

let test_ext3_errors () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  (match Vfs.read_file ops "/nope" with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT");
  let _ = Helpers.ok_fs (Vfs.write_file ops "/f" "x") in
  (match Vfs.create_path ops "/f" Vfs.Regular with
  | Error Vfs.EEXIST -> ()
  | _ -> Alcotest.fail "expected EEXIST");
  let _ = Helpers.ok_fs (Vfs.mkdir_p ops "/d/sub") in
  (match Vfs.remove_path ops "/d" with
  | Error Vfs.ENOTEMPTY -> ()
  | _ -> Alcotest.fail "expected ENOTEMPTY")

let test_ext3_rename_overwrites () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/orig" "old-contents") in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/tmp" "new-contents") in
  Helpers.ok_fs (Vfs.rename_path ops "/tmp" "/orig");
  check tstr "rename replaced target" "new-contents" (Helpers.ok_fs (Vfs.read_file ops "/orig"));
  (match Vfs.lookup_path ops "/tmp" with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "source gone after rename")

let test_ext3_sparse_and_offsets () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/sparse" Vfs.Regular) in
  Helpers.ok_fs (ops.write ino ~off:10_000 "end");
  let st = Helpers.ok_fs (ops.getattr ino) in
  check tint "size extends" 10_003 st.Vfs.st_size;
  let hole = Helpers.ok_fs (ops.read ino ~off:5_000 ~len:10) in
  check tstr "hole reads zeros" (String.make 10 '\000') hole;
  check tstr "tail" "end" (Helpers.ok_fs (ops.read ino ~off:10_000 ~len:3))

let test_ext3_large_file () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let data = Helpers.payload ~seed:9 ~len:(1 lsl 20) in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/big" data) in
  check tbool "1MB roundtrip" true (String.equal data (Helpers.ok_fs (Vfs.read_file ops "/big")))

let test_ext3_journal_replay () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  let fs = Ext3.format disk in
  let ops = Ext3.ops fs in
  let _ = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/dir/f1" "one") in
  let _ = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/dir/f2" "two") in
  Helpers.ok_fs (Vfs.remove_path ops "/dir/f1");
  (* crash and remount *)
  Disk.crash disk;
  Disk.revive disk;
  let fs2 = Ext3.mount disk in
  let ops2 = Ext3.ops fs2 in
  check tstr "replayed data" "two" (Helpers.ok_fs (Vfs.read_file ops2 "/dir/f2"));
  (match Vfs.read_file ops2 "/dir/f1" with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "unlink replayed")

let test_ext3_replay_after_many_ops () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  let fs = Ext3.format disk in
  let ops = Ext3.ops fs in
  for i = 0 to 99 do
    let _ =
      Helpers.ok_fs
        (Vfs.write_file ~mkparents:true ops
           (Printf.sprintf "/d%d/file%d" (i mod 7) i)
           (Helpers.payload ~seed:i ~len:(100 + (i * 13))))
    in
    ()
  done;
  let fs2 = Ext3.mount disk in
  let ops2 = Ext3.ops fs2 in
  for i = 0 to 99 do
    let path = Printf.sprintf "/d%d/file%d" (i mod 7) i in
    check tbool ("replay " ^ path) true
      (String.equal
         (Helpers.payload ~seed:i ~len:(100 + (i * 13)))
         (Helpers.ok_fs (Vfs.read_file ops2 path)))
  done

let test_ext3_journal_compaction () =
  (* a tiny journal forces snapshot compaction; state and data must
     survive it, including across a remount *)
  let clock = Clock.create () in
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
  let fs = Ext3.format ~jblocks:2 disk in
  let ops = Ext3.ops fs in
  for i = 0 to 120 do
    let _ =
      Helpers.ok_fs
        (Vfs.write_file ~mkparents:true ops
           (Printf.sprintf "/d/f%d" i)
           (Helpers.payload ~seed:i ~len:(50 + i)))
    in
    ()
  done;
  (* everything still readable post-compaction *)
  for i = 0 to 120 do
    check tbool (Printf.sprintf "f%d intact" i) true
      (String.equal
         (Helpers.payload ~seed:i ~len:(50 + i))
         (Helpers.ok_fs (Vfs.read_file ops (Printf.sprintf "/d/f%d" i))))
  done;
  (* and after replaying the compacted journal *)
  let ops2 = Ext3.ops (Ext3.mount ~jblocks:2 disk) in
  for i = 0 to 120 do
    check tbool (Printf.sprintf "f%d replayed" i) true
      (String.equal
         (Helpers.payload ~seed:i ~len:(50 + i))
         (Helpers.ok_fs (Vfs.read_file ops2 (Printf.sprintf "/d/f%d" i))))
  done

let test_ext3_no_stale_frames_after_compaction () =
  (* compaction rewrites the journal from offset 0, leaving the previous
     pass's frames on disk behind the new tail; when the tail lands on an
     old frame boundary, replay must stop there rather than resurrect
     them *)
  let mismatches = ref [] in
  for seed = 0 to 199 do
    let disk = Disk.create ~registry:(Telemetry.create ()) ~clock:(Clock.create ()) () in
    let ops = Ext3.ops (Ext3.format ~jblocks:1 disk) in
    let r = Wk.rng seed in
    for _ = 1 to 300 + Wk.rand r 301 do
      let name = Printf.sprintf "f%d" (Wk.rand r 20) in
      match ops.Vfs.lookup ~dir:Ext3.root_ino name with
      | Ok _ -> Helpers.ok_fs (ops.Vfs.unlink ~dir:Ext3.root_ino name)
      | Error _ ->
          let _ : Vfs.ino =
            Helpers.ok_fs (ops.Vfs.create ~dir:Ext3.root_ino name Vfs.Regular)
          in
          ()
    done;
    let live = Helpers.ok_fs (ops.Vfs.readdir Ext3.root_ino) in
    let remounted = Ext3.ops (Ext3.mount ~jblocks:1 disk) in
    if live <> Helpers.ok_fs (remounted.Vfs.readdir Ext3.root_ino) then
      mismatches := seed :: !mismatches
  done;
  check Alcotest.(list int) "seeds whose remount differs from the live tree" []
    (List.rev !mismatches)

(* Twenty creates with 240-byte names: about 6 KB of journal frames, which
   moves the tail past the block of any earlier unlink, so its pages are
   freed. *)
let move_journal_tail ops =
  for i = 0 to 19 do
    let name = Printf.sprintf "/pad%d.%s" i (String.make 240 'p') in
    ignore (Helpers.ok_fs (Vfs.create_path ops name Vfs.Regular) : Vfs.ino)
  done

let test_ext3_rename_kinds () =
  (* a victim of the wrong kind, or a non-empty directory victim, is
     refused before any frame is logged: nothing is orphaned *)
  let disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  ignore (Helpers.ok_fs (Vfs.write_file ops "/f" "file") : Vfs.ino);
  ignore (Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/d/inner" "inner") : Vfs.ino);
  ignore (Helpers.ok_fs (Vfs.mkdir_p ops "/e") : Vfs.ino);
  ignore (Helpers.ok_fs (Vfs.mkdir_p ops "/e2") : Vfs.ino);
  let logged = Ext3.metadata_ops fs in
  List.iter
    (fun (src, dst, want) ->
      match Vfs.rename_path ops src dst with
      | Error e when e = want -> ()
      | Ok () -> Alcotest.failf "rename %s over %s succeeded" src dst
      | Error e -> Alcotest.failf "rename %s over %s: %s" src dst (Vfs.errno_to_string e))
    [ ("/f", "/d", Vfs.EISDIR); ("/d", "/f", Vfs.ENOTDIR); ("/e", "/d", Vfs.ENOTEMPTY) ];
  check tint "no frame logged" logged (Ext3.metadata_ops fs);
  Helpers.ok_fs (Vfs.rename_path ops "/e" "/e2");
  check tbool "empty directory replaced" true (Vfs.lookup_path ops "/e" = Error Vfs.ENOENT);
  let ops2 = Ext3.ops (Ext3.mount disk) in
  check tstr "file kept across replay" "file" (Helpers.ok_fs (Vfs.read_file ops2 "/f"));
  check tstr "subtree kept across replay" "inner" (Helpers.ok_fs (Vfs.read_file ops2 "/d/inner"));
  check Alcotest.(list string) "root after replay" [ "d"; "e2"; "f" ]
    (Helpers.ok_fs (ops2.Vfs.readdir Ext3.root_ino))

let test_ext3_unlink_keeps_cache_slots () =
  (* an unlinked file's freed page keeps its FIFO slot until evicted, as
     it did when pages were never freed: writing d into a full cache
     evicts a, not the dead page of b *)
  let _disk, fs = Helpers.fresh_ext3 () in
  Ext3.set_cache_capacity fs 3;
  let ops = Ext3.ops fs in
  let page c = String.make Disk.block_size c in
  let put c =
    ignore (Helpers.ok_fs (Vfs.write_file ops (Printf.sprintf "/%c" c) (page c)) : Vfs.ino)
  in
  List.iter put [ 'a'; 'b'; 'c' ];
  Helpers.ok_fs (Vfs.remove_path ops "/b");
  move_journal_tail ops;
  ignore (Helpers.ok_fs (Vfs.write_file ops "/d" (page 'd')) : Vfs.ino);
  let hits, misses = Ext3.cache_stats fs in
  check tstr "a reads back" (page 'a') (Helpers.ok_fs (Vfs.read_file ops "/a"));
  check tstr "c reads back" (page 'c') (Helpers.ok_fs (Vfs.read_file ops "/c"));
  check Alcotest.(pair int int) "a missed, c hit" (hits + 1, misses + 1) (Ext3.cache_stats fs)

(* A create/write/unlink/rename-over churn in the root directory, and its
   model: the files after each step.  Long names fill the journal, so
   its tail moves past the blocks holding earlier unlinks and their
   discards run. *)
type churn_step =
  | Mk of string
  | Put of string * string
  | Rm of string
  | Mv of string * string

let churn_script =
  List.concat
    (List.init 24 (fun i ->
         let f k = Printf.sprintf "f%d.%s" k (String.make 240 'n') in
         [ Mk (f i); Put (f i, Helpers.payload ~seed:i ~len:(300 + (i mod 5 * 1500))) ]
         @ (if i mod 3 = 2 then [ Rm (f (i - 2)) ] else [])
         @
         if i mod 4 = 3 then
           [ Mk "tmp"; Put ("tmp", Helpers.payload ~seed:(100 + i) ~len:(2000 + (i mod 5 * 700)));
             Mv ("tmp", f (i - 1)) ]
         else []))

let churn_model files = function
  | Mk n -> (n, "") :: files
  | Put (n, d) -> (n, d) :: List.remove_assoc n files
  | Rm n -> List.remove_assoc n files
  | Mv (src, dst) ->
      (dst, List.assoc src files) :: List.remove_assoc src (List.remove_assoc dst files)

let churn_exec (ops : Vfs.ops) step =
  let root = Ext3.root_ino in
  match step with
  | Mk n -> Result.map ignore (ops.create ~dir:root n Vfs.Regular)
  | Put (n, d) -> Result.bind (ops.lookup ~dir:root n) (fun ino -> ops.write ino ~off:0 d)
  | Rm n -> ops.unlink ~dir:root n
  | Mv (src, dst) -> ops.rename ~src_dir:root ~src_name:src ~dst_dir:root ~dst_name:dst

(* The files a mounted tree holds, sorted; a read error fails the test. *)
let churn_files (ops : Vfs.ops) =
  List.map
    (fun n ->
      match Vfs.read_file ops ("/" ^ n) with
      | Ok d -> (n, d)
      | Error e -> Alcotest.failf "reading %s after replay: %s" n (Vfs.errno_to_string e))
    (Helpers.ok_fs (ops.readdir Ext3.root_ino))

let test_ext3_crash_sweep_with_unlinks () =
  (* crash the churn at every disk-write tick: the replayed tree is the
     model before or after the step in flight, so every surviving file is
     intact, deleted names stay gone, and no read meets a discarded
     page *)
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  let fresh () =
    let disk = Disk.create ~registry:(Telemetry.create ()) ~clock:(Clock.create ()) () in
    let fs = Ext3.format disk in
    (disk, fs, Ext3.ops fs)
  in
  let disk, fs, ops = fresh () in
  let writes0 = (Disk.stats disk).writes in
  let files =
    List.fold_left
      (fun files step ->
        Helpers.ok_fs (churn_exec ops step);
        churn_model files step)
      [] churn_script
  in
  let ticks = (Disk.stats disk).writes - writes0 in
  (* once the tail has moved past the last unlink, the disk holds the
     live files' pages and the journal, nothing else *)
  move_journal_tail ops;
  let blocks bytes = (bytes + Disk.block_size - 1) / Disk.block_size in
  check tint "only reachable pages resident"
    (List.fold_left (fun n (_, d) -> n + blocks (String.length d)) 0 files
    + blocks (Ext3.journal_bytes_written fs))
    (Disk.resident_blocks disk);
  for k = 0 to ticks - 1 do
    let disk, _, ops = fresh () in
    Disk.schedule_crash disk ~after_writes:k;
    let rec run files = function
      | [] -> Alcotest.failf "tick %d: no crash" k
      | step :: rest -> (
          match churn_exec ops step with
          | Ok () -> run (churn_model files step) rest
          | Error Vfs.ECRASH -> (sorted files, sorted (churn_model files step))
          | Error e -> Alcotest.failf "tick %d: %s" k (Vfs.errno_to_string e))
    in
    let before, after = run [] churn_script in
    Disk.revive disk;
    let ops2 = Ext3.ops (Ext3.mount disk) in
    let got = churn_files ops2 in
    if got <> before && got <> after then
      Alcotest.failf "tick %d: replayed tree [%s] is neither model state" k
        (String.concat " " (List.map fst got));
    (* the remounted file system keeps working over freed blocks *)
    let post = Helpers.payload ~seed:k ~len:9000 in
    ignore (Helpers.ok_fs (Vfs.write_file ops2 "/post" post) : Vfs.ino);
    check tbool "write after replay" true (Vfs.read_file ops2 "/post" = Ok post)
  done

let test_ext3_latent_fault_keeps_pages () =
  (* a torn write of an unlink frame, or a corrupted sector in the journal
     block that holds it, can make replay bring the file back: its pages
     must still be there.  The pad file's name slides the unlink frame
     across the middle of the first journal block, where both faults
     land. *)
  let victim = Helpers.payload ~seed:77 ~len:9000 in
  List.iter
    (fun (what, spec, before_unlink) ->
      let resurrected = ref 0 in
      for pad = 1850 to 1920 do
        let disk = Disk.create ~registry:(Telemetry.create ()) ~clock:(Clock.create ()) () in
        let ops = Ext3.ops (Ext3.format disk) in
        ignore (Helpers.ok_fs (Vfs.write_file ops "/victim" victim) : Vfs.ino);
        let pad_file = "/" ^ String.make pad 'p' in
        ignore (Helpers.ok_fs (Vfs.create_path ops pad_file Vfs.Regular) : Vfs.ino);
        let fault () =
          Disk.set_fault disk (Fault.plan ~registry:(Telemetry.create ()) ~spec ~seed:0 ())
        in
        if before_unlink then fault ();
        Helpers.ok_fs (Vfs.remove_path ops "/victim");
        if not before_unlink then fault ();
        move_journal_tail ops;
        Disk.set_fault disk Fault.none;
        let ops2 = Ext3.ops (Ext3.mount disk) in
        match Vfs.read_file ops2 "/victim" with
        | Ok data ->
            incr resurrected;
            check tbool (Printf.sprintf "%s, pad %d: original bytes" what pad) true
              (String.equal data victim)
        | Error Vfs.ENOENT -> ()
        | Error e -> Alcotest.failf "%s, pad %d: %s" what pad (Vfs.errno_to_string e)
      done;
      check tbool (what ^ ": some replay brought the file back") true (!resurrected > 0))
    [
      ("torn unlink frame", { Fault.quiet with torn_write = 1000; disk_until_op = 1 }, true);
      ( "corrupted block of a pending unlink",
        { Fault.quiet with corrupt_sector = 1000; disk_until_op = 1 },
        false );
    ]

(* --- lasagna ------------------------------------------------------------- *)

let fresh_lasagna () =
  let registry = Telemetry.create () in
  let clock = Clock.create () in
  let disk = Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Clock.advance clock) ()
  in
  (clock, disk, ext3, ctx, lasagna)

let test_lasagna_passthrough () =
  let _clock, _disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let _ = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/data/x" "payload") in
  check tstr "stacked read" "payload" (Helpers.ok_fs (Vfs.read_file ops "/data/x"));
  check tbool ".pass hidden from readdir" true
    (not (List.mem ".pass" (Helpers.ok_fs (ops.readdir (ops.root ())))))

let test_lasagna_dpapi_write_read () =
  let _clock, _disk, _ext3, ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/f" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  let v = Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "abc") [ Dpapi.entry h [ Record.name "f" ] ]) in
  check tint "write version" (Ctx.current_version ctx h.pnode) v;
  let r = Helpers.ok (ep.pass_read h ~off:0 ~len:3) in
  check tstr "pass_read data" "abc" r.Dpapi.data;
  check tbool "pass_read identity" true (Pnode.equal r.r_pnode h.pnode)

let test_lasagna_wap_ordering () =
  (* The provenance frame must hit the log before the data hits the file:
     crash the disk right after the log append and verify recovery flags
     the data as inconsistent (provenance present, data missing). *)
  let _clock, disk, ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/victim" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  (* Writing 8 KB of data: the log frame needs 1-2 block writes (incl. the
     journal frames); let the frame land and kill the device before the
     data write completes. *)
  Disk.schedule_crash disk ~after_writes:3;
  (match ep.pass_write h ~off:0 ~data:(Some (Helpers.payload ~seed:5 ~len:8192))
           [ Dpapi.entry h [ Record.name "victim" ] ]
   with
  | Ok _ -> Alcotest.fail "write should have crashed"
  | Error Dpapi.Ecrashed -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Dpapi.error_to_string e));
  Disk.revive disk;
  ignore (ext3 : Ext3.t);
  let remounted = Ext3.mount disk in
  let report = Helpers.ok_fs (Recovery.scan ~registry:(Telemetry.create ()) (Ext3.ops remounted)) in
  check tbool "recovery found the in-flight write" true (List.length report.inconsistent >= 1);
  let inc = List.hd report.inconsistent in
  check tbool "right object flagged" true (Pnode.equal inc.Recovery.i_pnode h.pnode)

let test_lasagna_recovery_clean () =
  (* With no crash, recovery over the same logs reports nothing. *)
  let registry = Telemetry.create () in
  let _clock, disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/ok" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  let _ =
    Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "consistent") [ Dpapi.entry h [] ])
  in
  let remounted = Ext3.mount disk in
  let report = Helpers.ok_fs (Recovery.scan ~registry (Ext3.ops remounted)) in
  check tint "nothing inconsistent" 0 (List.length report.inconsistent);
  check tbool "frames were scanned" true (report.frames_ok > 0);
  (* the same volume passes the offline graph verifier, replaying the
     still-unconsumed WAP log through the production ingest path *)
  let vreport =
    Helpers.ok_fs (Pvcheck.fsck ~registry ~lower:(Ext3.ops remounted) ~volume:"vol0" ())
  in
  check tbool "orphan-agreement ran" true (List.mem "orphan-agreement" vreport.Pvcheck.r_passes);
  if not (Pvcheck.clean vreport) then
    Alcotest.failf "pvcheck after clean recovery:@ %a" Pvcheck.pp_report vreport

let test_lasagna_overwrite_recovery_clean () =
  (* regression: overwriting already-digested data in the same version
     must re-digest, or clean recovery would report a false mismatch *)
  let _clock, disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/rewritten" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  let _ = Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "first contents") [ Dpapi.entry h [] ]) in
  (* same version, overlapping range, empty bundle *)
  let _ = Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "second!") []) in
  let remounted = Ext3.mount disk in
  let report = Helpers.ok_fs (Recovery.scan ~registry:(Telemetry.create ()) (Ext3.ops remounted)) in
  check tint "no false inconsistency after overwrite" 0 (List.length report.inconsistent)

let test_lasagna_dormancy_rotation () =
  (* the paper's second rotation trigger: a dormant log closes on the
     next append *)
  let registry = Telemetry.create () in
  let clock = Clock.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~idle_ns:1_000_000 ~now:(fun () -> Clock.now clock)
      ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0" ~charge:(Clock.advance clock) ()
  in
  let closed = ref 0 in
  Lasagna.on_log_closed lasagna (fun _ _ -> incr closed);
  let ops = Lasagna.ops lasagna in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/one" "x") in
  check tint "no rotation while active" 0 !closed;
  Clock.advance clock 5_000_000 (* the log goes dormant *);
  let _ = Helpers.ok_fs (Vfs.write_file ops "/two" "y") in
  check tbool "dormant log was closed" true (!closed >= 1)

let test_lasagna_provenance_survives_rename () =
  let _clock, _disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.write_file ops "/before" "data") in
  let h1 = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  Helpers.ok_fs (Vfs.rename_path ops "/before" "/after");
  let ino2 = Helpers.ok_fs (Vfs.lookup_path ops "/after") in
  let h2 = Helpers.ok_fs (Lasagna.file_handle lasagna ino2) in
  check tbool "pnode survives rename" true (Pnode.equal h1.pnode h2.pnode)

let test_lasagna_log_rotation () =
  let clock = Clock.create () in
  let registry = Telemetry.create () in
  let disk = Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~log_max:512 ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Clock.advance clock) ()
  in
  let closed = ref [] in
  Lasagna.on_log_closed lasagna (fun name _ino -> closed := name :: !closed);
  let ops = Lasagna.ops lasagna in
  for i = 0 to 20 do
    let _ = Helpers.ok_fs (Vfs.write_file ops (Printf.sprintf "/f%d" i) "x") in
    ()
  done;
  check tbool "logs rotated" true (List.length !closed > 0);
  check tint "rotation count matches" (List.length !closed) (Helpers.count registry "wap.rotations")

let test_lasagna_mkobj_revive () =
  let _clock, _disk, _ext3, ctx, lasagna = fresh_lasagna () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  let h' = Helpers.ok (ep.pass_reviveobj h.pnode 0) in
  check tbool "revive finds object" true (Pnode.equal h.pnode h'.pnode);
  (match ep.pass_reviveobj h.pnode 99 with
  | Error Dpapi.Estale -> ()
  | _ -> Alcotest.fail "future version must be stale");
  (match ep.pass_reviveobj (Ctx.fresh ctx) 0 with
  | Error Dpapi.Enoent -> ()
  | _ -> Alcotest.fail "unknown object must be ENOENT")

(* WAP property: crash at a random point during a stream of provenance-
   carrying writes; recovery must never report an inconsistency for data
   whose write completed, and the flagged set only contains the in-flight
   object. *)
let prop_wap_crash_safety =
  QCheck2.Test.make ~name:"WAP: crash anywhere, recovery exact" ~count:40
    QCheck2.Gen.(pair (int_range 1 60) (int_bound 10_000))
    (fun (crash_after, seed) ->
      let registry = Telemetry.create () in
      let clock = Clock.create () in
      let disk = Disk.create ~registry ~clock () in
      let ext3 = Ext3.format disk in
      let ctx = Ctx.create ~machine:1 in
      let lasagna =
        Lasagna.create ~registry ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
          ~charge:(Clock.advance clock) ()
      in
      let ops = Lasagna.ops lasagna in
      let ep = Lasagna.endpoint lasagna in
      let completed = Hashtbl.create 16 in
      Simdisk.Disk.schedule_crash disk ~after_writes:crash_after;
      (try
         for i = 0 to 19 do
           let path = Printf.sprintf "/f%d" i in
           let ino =
             match Vfs.create_path ops path Vfs.Regular with
             | Ok ino -> ino
             | Error _ -> raise Stdlib.Exit
           in
           let h =
             match Lasagna.file_handle lasagna ino with
             | Ok h -> h
             | Error _ -> raise Stdlib.Exit
           in
           let data = Helpers.payload ~seed:(seed + i) ~len:(512 + (i * 97)) in
           match ep.pass_write h ~off:0 ~data:(Some data) [ Dpapi.entry h [] ] with
           | Ok _ -> Hashtbl.replace completed (Pnode.to_int h.pnode) ()
           | Error _ -> raise Stdlib.Exit
         done
       with Stdlib.Exit -> ());
      Simdisk.Disk.revive disk;
      let remounted = Ext3.mount disk in
      match Recovery.scan ~registry (Ext3.ops remounted) with
      | Error _ -> false
      | Ok report ->
          List.for_all
            (fun (inc : Recovery.inconsistency) ->
              (* completed writes are never flagged *)
              not (Hashtbl.mem completed (Pnode.to_int inc.i_pnode)))
            report.inconsistent)

(* The journal's bytes are pinned: a seeded churn of creates, writes,
   renames and unlinks over a two-block journal, which compacts several
   times, must leave the same journal region and the same byte count
   (digests taken from the two-Buffer frame builder).  ext3 places its
   journal at block 8. *)
let test_ext3_journal_bytes_unchanged () =
  let disk = Disk.create ~registry:(Telemetry.create ()) ~clock:(Clock.create ()) () in
  let fs = Ext3.format ~jblocks:2 disk in
  let ops = Ext3.ops fs in
  let root = Ext3.root_ino in
  let r = Wk.rng 0x1ea in
  let name k = Printf.sprintf "file%02d" k in
  for _ = 1 to 400 do
    let k = Wk.rand r 24 in
    match ops.Vfs.lookup ~dir:root (name k) with
    | Error _ ->
        let ino = Helpers.ok_fs (ops.Vfs.create ~dir:root (name k) Vfs.Regular) in
        Helpers.ok_fs (ops.Vfs.write ino ~off:0 (Helpers.payload ~seed:k ~len:(1 + Wk.rand r 9000)))
    | Ok ino -> (
        match Wk.rand r 3 with
        | 0 ->
            Helpers.ok_fs
              (ops.Vfs.write ino ~off:(Wk.rand r 6000) (Helpers.payload ~seed:k ~len:(1 + Wk.rand r 5000)))
        | 1 -> (
            match
              ops.Vfs.rename ~src_dir:root ~src_name:(name k) ~dst_dir:root
                ~dst_name:(name (Wk.rand r 24))
            with
            | Ok () | Error _ -> ())
        | _ -> Helpers.ok_fs (ops.Vfs.unlink ~dir:root (name k)))
  done;
  let region = Disk.read_bytes disk ~off:(8 * Disk.block_size) ~len:(2 * Disk.block_size) in
  check tbool "the churn compacted" true (Ext3.journal_bytes_written fs > String.length region);
  check tint "journal bytes written" 30336 (Ext3.journal_bytes_written fs);
  check Alcotest.string "MD5 of the journal region" "f16097e73c4c6330debda0225d713412"
    (Digest.to_hex (Digest.string region))

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_wap_crash_safety ]

let suite =
  [
    Alcotest.test_case "disk: block roundtrip" `Quick test_disk_rw;
    Alcotest.test_case "disk: byte API spans blocks" `Quick test_disk_bytes_api;
    Alcotest.test_case "disk: charges simulated time" `Quick test_disk_charges_time;
    Alcotest.test_case "disk: seek cost grows with distance" `Quick test_disk_seek_cost_monotone;
    Alcotest.test_case "disk: crash injection" `Quick test_disk_crash;
    Alcotest.test_case "ext3: create/read/write/readdir" `Quick test_ext3_basics;
    Alcotest.test_case "ext3: error paths" `Quick test_ext3_errors;
    Alcotest.test_case "ext3: rename overwrites target" `Quick test_ext3_rename_overwrites;
    Alcotest.test_case "ext3: sparse files and offsets" `Quick test_ext3_sparse_and_offsets;
    Alcotest.test_case "ext3: 1MB file roundtrip" `Quick test_ext3_large_file;
    Alcotest.test_case "ext3: journal replay after crash" `Quick test_ext3_journal_replay;
    Alcotest.test_case "ext3: replay 100 files" `Slow test_ext3_replay_after_many_ops;
    Alcotest.test_case "ext3: journal compaction + replay" `Quick test_ext3_journal_compaction;
    Alcotest.test_case "ext3: no stale frames after compaction" `Quick
      test_ext3_no_stale_frames_after_compaction;
    Alcotest.test_case "disk: discard frees a block" `Quick test_disk_discard;
    Alcotest.test_case "disk: a discard is free" `Quick test_disk_discard_is_free;
    Alcotest.test_case "ext3: rename over a directory is refused" `Quick test_ext3_rename_kinds;
    Alcotest.test_case "ext3: unlinked pages keep their cache slots" `Quick
      test_ext3_unlink_keeps_cache_slots;
    Alcotest.test_case "ext3: crash sweep with unlinks" `Quick
      test_ext3_crash_sweep_with_unlinks;
    Alcotest.test_case "ext3: latent faults keep unlinked pages" `Quick
      test_ext3_latent_fault_keeps_pages;
    Alcotest.test_case "lasagna: VFS passthrough + .pass hidden" `Quick test_lasagna_passthrough;
    Alcotest.test_case "lasagna: DPAPI write/read" `Quick test_lasagna_dpapi_write_read;
    Alcotest.test_case "lasagna: WAP ordering under crash" `Quick test_lasagna_wap_ordering;
    Alcotest.test_case "lasagna: clean recovery is empty" `Quick test_lasagna_recovery_clean;
    Alcotest.test_case "lasagna: overwrite keeps recovery clean" `Quick
      test_lasagna_overwrite_recovery_clean;
    Alcotest.test_case "lasagna: dormancy rotation" `Quick test_lasagna_dormancy_rotation;
    Alcotest.test_case "lasagna: provenance survives rename" `Quick
      test_lasagna_provenance_survives_rename;
    Alcotest.test_case "lasagna: log rotation notifies" `Quick test_lasagna_log_rotation;
    Alcotest.test_case "lasagna: mkobj/revive" `Quick test_lasagna_mkobj_revive;
    Alcotest.test_case "disk: costs unchanged by the page store" `Quick
      test_disk_costs_unchanged;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xd15c |])
      prop_disk_matches_model;
  ]
  @ qcheck_cases
  @ [ Alcotest.test_case "ext3: journal bytes unchanged" `Quick test_ext3_journal_bytes_unchanged ]
