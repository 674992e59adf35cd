(* Kernel/syscall-layer tests: descriptor semantics, path resolution
   across mounts, pipes, error paths, and interception bookkeeping. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let ok = Helpers.ok_fs

let sys2 () =
  System.create ~registry:(Telemetry.create ()) ~mode:System.Pass ~machine:1
    ~volume_names:[ "vol0"; "vol1" ] ()

let test_bad_descriptors () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  (match Kernel.read k ~pid ~fd:42 ~len:10 with
  | Error Vfs.EBADF -> ()
  | _ -> Alcotest.fail "read on bad fd");
  (match Kernel.write k ~pid ~fd:42 ~data:"x" with
  | Error Vfs.EBADF -> ()
  | _ -> Alcotest.fail "write on bad fd");
  (match Kernel.close k ~pid ~fd:42 with
  | Error Vfs.EBADF -> ()
  | _ -> Alcotest.fail "close on bad fd");
  (* descriptors die with the process *)
  let fd = ok (Kernel.open_file k ~pid ~path:"/vol0/f" ~create:true) in
  ok (Kernel.exit k ~pid);
  (match Kernel.write k ~pid ~fd ~data:"x" with
  | Error Vfs.EBADF -> ()
  | _ -> Alcotest.fail "fd survived exit")

let test_open_semantics () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  (match Kernel.open_file k ~pid ~path:"/vol0/absent" ~create:false with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "open without create must fail");
  (match Kernel.open_file k ~pid ~path:"/novol/x" ~create:true with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "unknown volume must fail");
  let fd = ok (Kernel.open_file k ~pid ~path:"/vol0/deep/nested/file" ~create:true) in
  ok (Kernel.write k ~pid ~fd ~data:"created with parents");
  ok (Kernel.close k ~pid ~fd);
  let st = ok (Kernel.stat k ~path:"/vol0/deep/nested/file") in
  check tint "size" 20 st.Vfs.st_size

let test_seek_and_offsets () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let fd = ok (Kernel.open_file k ~pid ~path:"/vol0/f" ~create:true) in
  ok (Kernel.write k ~pid ~fd ~data:"0123456789");
  ok (Kernel.seek k ~pid ~fd ~off:3);
  check tstr "read from seek point" "3456" (ok (Kernel.read k ~pid ~fd ~len:4));
  (* the offset advanced past the read *)
  check tstr "offset advanced" "789" (ok (Kernel.read k ~pid ~fd ~len:10));
  ok (Kernel.seek k ~pid ~fd ~off:8);
  ok (Kernel.write k ~pid ~fd ~data:"XY");
  ok (Kernel.seek k ~pid ~fd ~off:0);
  check tstr "overwrite at offset" "01234567XY" (ok (Kernel.read k ~pid ~fd ~len:20))

let test_two_volumes_and_rename () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let fd = ok (Kernel.open_file k ~pid ~path:"/vol0/a" ~create:true) in
  ok (Kernel.write k ~pid ~fd ~data:"on vol0");
  ok (Kernel.close k ~pid ~fd);
  (* cross-volume rename is rejected like EXDEV-ish (we use EINVAL) *)
  (match Kernel.rename k ~pid ~src:"/vol0/a" ~dst:"/vol1/a" with
  | Error Vfs.EINVAL -> ()
  | _ -> Alcotest.fail "cross-volume rename must fail");
  ok (Kernel.rename k ~pid ~src:"/vol0/a" ~dst:"/vol0/b");
  check tbool "renamed within volume" true (Result.is_ok (Kernel.stat k ~path:"/vol0/b"));
  (* both volumes get independent provenance stores *)
  let fd1 = ok (Kernel.open_file k ~pid ~path:"/vol1/c" ~create:true) in
  ok (Kernel.write k ~pid ~fd:fd1 ~data:"on vol1");
  ok (Kernel.close k ~pid ~fd:fd1);
  ignore (System.drain sys : int);
  let db0 = Option.get (System.waldo_db sys "vol0") in
  let db1 = Option.get (System.waldo_db sys "vol1") in
  check tbool "vol0 db has a" true (Provdb.find_by_name db0 "a" <> []);
  check tbool "vol1 db has c" true (Provdb.find_by_name db1 "c" <> []);
  check tbool "vol1 db lacks a" true (Provdb.find_by_name db1 "a" = [])

let test_readdir_and_listing () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  List.iter
    (fun name ->
      let fd = ok (Kernel.open_file k ~pid ~path:("/vol0/dir/" ^ name) ~create:true) in
      ok (Kernel.write k ~pid ~fd ~data:name);
      ok (Kernel.close k ~pid ~fd))
    [ "zeta"; "alpha"; "mid" ];
  check (Alcotest.list tstr) "sorted listing" [ "alpha"; "mid"; "zeta" ]
    (ok (Kernel.readdir k ~path:"/vol0/dir"))

let test_mmap_via_kernel () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let fd = ok (Kernel.open_file k ~pid ~path:"/vol0/lib.so" ~create:true) in
  ok (Kernel.write k ~pid ~fd ~data:"shared-object");
  ok (Kernel.close k ~pid ~fd);
  let user = Kernel.fork k ~parent:Kernel.init_pid in
  let fd = ok (Kernel.open_file k ~pid:user ~path:"/vol0/lib.so" ~create:false) in
  ok (Kernel.mmap k ~pid:user ~fd ~writable:false);
  let fd2 = ok (Kernel.open_file k ~pid:user ~path:"/vol0/out" ~create:true) in
  ok (Kernel.write k ~pid:user ~fd:fd2 ~data:"output");
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  let names =
    Helpers.pql_names db {|select A from Provenance.file as O O.input* as A where O.name = "out"|}
  in
  check tbool "mmapped library in ancestry" true (List.mem "lib.so" names)

let test_empty_pipe_read () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let pipe_id = Kernel.pipe k ~pid in
  check tstr "empty pipe reads empty" "" (ok (Kernel.pipe_read k ~pid ~pipe_id));
  (match Kernel.pipe_read k ~pid ~pipe_id:999 with
  | Error Vfs.EBADF -> ()
  | _ -> Alcotest.fail "unknown pipe must fail")

let test_syscall_accounting () =
  let sys = sys2 () in
  let k = System.kernel sys in
  let before = Kernel.syscall_count k in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let fd = ok (Kernel.open_file k ~pid ~path:"/vol0/x" ~create:true) in
  ok (Kernel.write k ~pid ~fd ~data:"1");
  ok (Kernel.close k ~pid ~fd);
  check tint "four syscalls counted" (before + 4) (Kernel.syscall_count k)

let suite =
  [
    Alcotest.test_case "bad descriptors" `Quick test_bad_descriptors;
    Alcotest.test_case "open semantics" `Quick test_open_semantics;
    Alcotest.test_case "seek and offsets" `Quick test_seek_and_offsets;
    Alcotest.test_case "two volumes + rename rules" `Quick test_two_volumes_and_rename;
    Alcotest.test_case "readdir listing" `Quick test_readdir_and_listing;
    Alcotest.test_case "mmap via kernel" `Quick test_mmap_via_kernel;
    Alcotest.test_case "empty pipe read" `Quick test_empty_pipe_read;
    Alcotest.test_case "syscall accounting" `Quick test_syscall_accounting;
  ]
