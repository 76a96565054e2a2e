(* Tests for the persistent content-addressed store: round-trips
   (including a qcheck property over arbitrary keys and payloads),
   persistence across reopen, stamp versioning, corruption tolerance
   (truncations and bit flips read as misses, never as exceptions or wrong
   payloads), FIFO eviction under a size limit, a removed entry read as
   absent (also while another domain's writes evict), and concurrent
   writers racing one key across the domain pool. *)

module Store = Support.Store

let tmp =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "skipper-test-store.%d.%d" (Unix.getpid ()) !n)

(* White-box: an entry lives at objects/<first-2-hex>/<md5-of-key>, which
   the corruption and eviction tests need in order to reach the file
   behind the API's back. *)
let entry_path dir key =
  let h = Digest.to_hex (Digest.string key) in
  Filename.concat dir
    (Filename.concat "objects" (Filename.concat (String.sub h 0 2) h))

let test_roundtrip () =
  let store = Store.open_store ~dir:(tmp ()) () in
  Alcotest.(check (option string)) "absent key" None (Store.get store ~key:"nope");
  let payload = "payload\x00with\nraw\xffbytes" in
  Store.put store ~key:"k" payload;
  Alcotest.(check (option string)) "round-trip" (Some payload)
    (Store.get store ~key:"k");
  Alcotest.(check bool) "mem" true (Store.mem store ~key:"k");
  Store.put store ~key:"k" "second";
  Alcotest.(check (option string)) "overwrite wins" (Some "second")
    (Store.get store ~key:"k");
  let c = Store.counters store in
  Alcotest.(check int) "hits" 2 c.Store.hits;
  Alcotest.(check int) "misses" 1 c.Store.misses;
  Alcotest.(check int) "the one miss was an absent entry" 1 c.Store.absent;
  Alcotest.(check int) "writes" 2 c.Store.writes;
  Alcotest.(check int) "payload bytes written"
    (String.length payload + String.length "second")
    c.Store.bytes_written;
  Alcotest.(check int) "payload bytes read by the hits"
    (String.length payload + String.length "second")
    c.Store.bytes_read

let test_reopen () =
  let dir = tmp () in
  let s1 = Store.open_store ~dir ~stamp:"v1" () in
  Store.put s1 ~key:"persist" "across processes";
  (* a second open of the same directory models a fresh process *)
  let s2 = Store.open_store ~dir ~stamp:"v1" () in
  Alcotest.(check (option string)) "survives reopen" (Some "across processes")
    (Store.get s2 ~key:"persist")

let test_stamp_mismatch () =
  let dir = tmp () in
  let s1 = Store.open_store ~dir ~stamp:"v1" () in
  Store.put s1 ~key:"k" "old format";
  let s2 = Store.open_store ~dir ~stamp:"v2" () in
  Alcotest.(check (option string)) "stamp bump orphans old entries" None
    (Store.get s2 ~key:"k");
  let c = Store.counters s2 in
  Alcotest.(check int) "counted as a stamp mismatch" 1 c.Store.stamp_mismatch;
  Alcotest.(check int) "not as corruption" 0 c.Store.corrupt;
  Alcotest.(check int) "and as a miss" 1 c.Store.misses

let corrupt_with mutate () =
  let dir = tmp () in
  let store = Store.open_store ~dir () in
  Store.put store ~key:"k" (String.make 4096 'x');
  mutate (entry_path dir "k");
  Alcotest.(check (option string)) "damaged entry reads as a miss" None
    (Store.get store ~key:"k");
  let c = Store.counters store in
  Alcotest.(check int) "corrupt counted" 1 c.Store.corrupt;
  (* the store still works after the bad read *)
  Store.put store ~key:"k" "fresh";
  Alcotest.(check (option string)) "rewrite heals" (Some "fresh")
    (Store.get store ~key:"k")

let truncate path = Unix.truncate path 40

let flip_last_byte path =
  let content = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string content in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let test_eviction () =
  let dir = tmp () in
  (* each 1000-byte payload makes a ~1060-byte entry file: three do not fit
     under the limit, two do *)
  let store = Store.open_store ~dir ~limit_bytes:2600 () in
  let payload c = String.make 1000 c in
  let backdate key seconds_ago =
    let t = Unix.gettimeofday () -. seconds_ago in
    Unix.utimes (entry_path dir key) t t
  in
  Store.put store ~key:"a" (payload 'a');
  backdate "a" 100.0;
  Store.put store ~key:"b" (payload 'b');
  backdate "b" 50.0;
  Store.put store ~key:"c" (payload 'c');
  let c = Store.counters store in
  Alcotest.(check int) "one eviction" 1 c.Store.evictions;
  Alcotest.(check (option string)) "oldest entry pruned" None
    (Store.get store ~key:"a");
  Alcotest.(check (option string)) "newer entries survive" (Some (payload 'b'))
    (Store.get store ~key:"b");
  Alcotest.(check (option string)) "newest survives" (Some (payload 'c'))
    (Store.get store ~key:"c")

let test_removed_entry_is_absent () =
  let dir = tmp () in
  let store = Store.open_store ~dir () in
  Store.put store ~key:"gone" "payload";
  Sys.remove (entry_path dir "gone");
  Alcotest.(check (option string)) "removed entry reads as a miss" None
    (Store.get store ~key:"gone");
  let c = Store.counters store in
  Alcotest.(check int) "counted as absent" 1 c.Store.absent;
  Alcotest.(check int) "not as corrupt" 0 c.Store.corrupt

(* Readers racing a writer whose size limit evicts entries as it goes: a
   read finds an entry whole or finds none, and an evicted one is absent,
   never corrupt. *)
let test_reads_racing_eviction () =
  let store = Store.open_store ~dir:(tmp ()) ~limit_bytes:4096 () in
  let keys = Array.init 8 (Printf.sprintf "k%d") in
  let payload key = String.make 1000 key.[1] in
  let results =
    Support.Domain_pool.run ~jobs:2
      [
        (fun () ->
          for _ = 1 to 50 do
            Array.iter (fun k -> Store.put store ~key:k (payload k)) keys
          done;
          true);
        (fun () ->
          let ok = ref true in
          for _ = 1 to 400 do
            Array.iter
              (fun k ->
                match Store.get store ~key:k with
                | None -> ()
                | Some p -> if p <> payload k then ok := false)
              keys
          done;
          !ok);
      ]
  in
  Alcotest.(check (list bool)) "every hit is its key's payload" [ true; true ]
    results;
  let c = Store.counters store in
  Alcotest.(check bool) "the limit evicted" true (c.Store.evictions > 0);
  Alcotest.(check int) "no read counted as corrupt" 0 c.Store.corrupt

let test_concurrent_writers () =
  let store = Store.open_store ~dir:(tmp ()) () in
  let nwriters = 8 in
  let payload i = String.make 20_000 (Char.chr (Char.code 'a' + i)) in
  (* every domain writes the shared key then immediately reads it back:
     the read must always see some writer's complete payload, never a torn
     or partial entry *)
  let reads =
    Support.Domain_pool.run ~jobs:4
      (List.init nwriters (fun i () ->
           Store.put store ~key:"shared" (payload i);
           Store.get store ~key:"shared"))
  in
  List.iter
    (function
      | None -> Alcotest.fail "reader raced into a missing entry"
      | Some p ->
          Alcotest.(check bool) "reader saw one complete payload" true
            (List.exists
               (fun i -> String.equal p (payload i))
               (List.init nwriters Fun.id)))
    reads;
  let c = Store.counters store in
  Alcotest.(check int) "no corruption under racing writers" 0 c.Store.corrupt;
  Alcotest.(check int) "every write counted" nwriters c.Store.writes

let prop_roundtrip =
  let store = lazy (Store.open_store ~dir:(tmp ()) ()) in
  QCheck.Test.make ~name:"arbitrary keys and payloads round-trip" ~count:100
    QCheck.(pair string string)
    (fun (key, payload) ->
      let store = Lazy.force store in
      Store.put store ~key payload;
      Store.get store ~key = Some payload)

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "reopen" `Quick test_reopen;
          Alcotest.test_case "stamp mismatch" `Quick test_stamp_mismatch;
          Alcotest.test_case "truncated entry" `Quick (corrupt_with truncate);
          Alcotest.test_case "flipped byte" `Quick (corrupt_with flip_last_byte);
          Alcotest.test_case "eviction" `Quick test_eviction;
          Alcotest.test_case "removed entry is absent" `Quick
            test_removed_entry_is_absent;
          Alcotest.test_case "reads racing eviction" `Quick
            test_reads_racing_eviction;
          Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
    ]
