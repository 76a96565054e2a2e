(* Tests for connected-component labelling: the union-find implementation
   against the flood-fill oracle, region statistics, and the scm-style band
   merge. *)

module I = Vision.Image
module C = Vision.Ccl

let random_binaryish seed density w h =
  let rng = Support.Prng.create seed in
  let img = I.create w h in
  I.iter
    (fun x y _ ->
      if Support.Prng.int rng 100 < density then I.set img x y 255 else I.set img x y 0)
    img;
  img

let test_empty_image () =
  let lab = C.label ~threshold:128 (I.create 8 8) in
  Alcotest.(check int) "no components" 0 lab.C.ncomponents;
  Alcotest.(check (list int)) "no regions" []
    (List.map (fun r -> r.C.label) (C.regions lab))

let test_full_image () =
  let lab = C.label ~threshold:128 (I.create ~init:255 8 8) in
  Alcotest.(check int) "one component" 1 lab.C.ncomponents;
  match C.regions lab with
  | [ r ] ->
      Alcotest.(check int) "area" 64 r.C.area;
      Alcotest.(check (float 0.001)) "cx" 3.5 r.C.cx;
      Alcotest.(check int) "bbox" 7 r.C.max_x
  | _ -> Alcotest.fail "expected one region"

let test_two_blobs () =
  let img = I.create 10 10 in
  I.set img 1 1 255;
  I.set img 2 1 255;
  I.set img 8 8 255;
  let lab = C.label ~threshold:128 img in
  Alcotest.(check int) "two components" 2 lab.C.ncomponents

let test_diagonal_not_connected () =
  (* 4-connectivity: diagonal pixels form separate components. *)
  let img = I.create 4 4 in
  I.set img 1 1 255;
  I.set img 2 2 255;
  let lab = C.label ~threshold:128 img in
  Alcotest.(check int) "diagonals separate" 2 lab.C.ncomponents

let test_u_shape_merges () =
  (* A U shape forces a label equivalence to be resolved in pass two. *)
  let img = I.create 5 4 in
  List.iter
    (fun (x, y) -> I.set img x y 255)
    [ (0, 0); (0, 1); (0, 2); (4, 0); (4, 1); (4, 2); (0, 3); (1, 3); (2, 3); (3, 3); (4, 3) ];
  let lab = C.label ~threshold:128 img in
  Alcotest.(check int) "U is one component" 1 lab.C.ncomponents

let test_labels_dense () =
  let img = random_binaryish 5 40 30 30 in
  let lab = C.label ~threshold:128 img in
  let seen = Array.make (lab.C.ncomponents + 1) false in
  Array.iter (fun l -> if l > 0 then seen.(l) <- true) lab.C.labels;
  for l = 1 to lab.C.ncomponents do
    if not seen.(l) then Alcotest.failf "label %d unused" l
  done

let test_regions_area_sums () =
  let img = random_binaryish 6 35 25 25 in
  let lab = C.label ~threshold:128 img in
  let total = List.fold_left (fun acc r -> acc + r.C.area) 0 (C.regions lab) in
  let foreground = I.fold (fun n v -> if v >= 128 then n + 1 else n) 0 img in
  Alcotest.(check int) "areas sum to foreground" foreground total

let test_equivalent_detects_renaming () =
  let img = random_binaryish 7 30 20 20 in
  let a = C.label ~threshold:128 img in
  let b = C.label_flood ~threshold:128 img in
  Alcotest.(check bool) "union-find ~ flood" true (C.equivalent a b);
  (* A corrupted labelling is not equivalent. *)
  if Array.length b.C.labels > 0 && b.C.ncomponents > 0 then begin
    let c = { b with C.labels = Array.copy b.C.labels } in
    (match Array.find_index (fun l -> l > 0) c.C.labels with
    | Some i -> c.C.labels.(i) <- 0
    | None -> ());
    Alcotest.(check bool) "corruption detected" false (C.equivalent a c)
  end

let test_merge_bands_trivial () =
  let img = random_binaryish 8 30 16 16 in
  let whole = C.label ~threshold:128 img in
  let single = C.merge_bands ~width:16 [ (whole, 0) ] in
  Alcotest.(check bool) "single band is identity" true (C.equivalent whole single)

let test_merge_bands_rejects_gaps () =
  let img = I.create 4 4 in
  let lab = C.label ~threshold:128 img in
  Alcotest.check_raises "non-contiguous"
    (Invalid_argument "Ccl.merge_bands: bands not contiguous") (fun () ->
      ignore (C.merge_bands ~width:4 [ (lab, 1) ]))

let split_label_merge ~threshold img n =
  let bands = I.row_bands img n in
  let parts =
    List.map (fun (y0, _ as b) -> (C.label ~threshold (I.extract_band img b), y0)) bands
  in
  C.merge_bands ~width:(I.width img) parts

let test_banded_equals_whole () =
  let img = random_binaryish 9 45 40 32 in
  let whole = C.label ~threshold:128 img in
  List.iter
    (fun n ->
      let merged = split_label_merge ~threshold:128 img n in
      Alcotest.(check bool)
        (Printf.sprintf "%d bands equivalent" n)
        true (C.equivalent whole merged))
    [ 2; 3; 4; 8 ]

let arbitrary_case =
  QCheck.make
    QCheck.Gen.(
      map3
        (fun seed density (w, h) -> (seed, density, w, h))
        (int_bound 100_000) (int_range 5 70)
        (pair (int_range 2 40) (int_range 2 40)))
    ~print:(fun (s, d, w, h) -> Printf.sprintf "seed=%d density=%d %dx%d" s d w h)

let prop_union_find_matches_flood =
  QCheck.Test.make ~name:"two-pass labelling matches flood fill" ~count:120
    arbitrary_case (fun (seed, density, w, h) ->
      let img = random_binaryish seed density w h in
      C.equivalent (C.label ~threshold:128 img) (C.label_flood ~threshold:128 img))

let prop_banded_matches_whole =
  QCheck.Test.make ~name:"banded merge matches whole-image labelling" ~count:120
    (QCheck.pair arbitrary_case (QCheck.int_range 1 8))
    (fun ((seed, density, w, h), n) ->
      QCheck.assume (n <= h);
      let img = random_binaryish seed density w h in
      C.equivalent (C.label ~threshold:128 img) (split_label_merge ~threshold:128 img n))

(* The two-pass labelling [label] replaced (preallocated rank-based
   union-find, [Hashtbl] densify), kept here as an exact oracle. *)
module Reference = struct
  module Uf = struct
    type t = { parent : int array; rank : int array }

    let create n = { parent = Array.init n Fun.id; rank = Array.make n 0 }

    let rec find t i =
      let p = t.parent.(i) in
      if p = i then i
      else begin
        t.parent.(i) <- t.parent.(p);
        find t t.parent.(i)
      end

    let union t a b =
      let ra = find t a and rb = find t b in
      if ra <> rb then
        if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
        else if t.rank.(ra) > t.rank.(rb) then t.parent.(rb) <- ra
        else begin
          t.parent.(rb) <- ra;
          t.rank.(ra) <- t.rank.(ra) + 1
        end
  end

  let densify raw =
    let remap = Hashtbl.create 64 in
    let next = ref 0 in
    Array.iteri
      (fun i r ->
        if r <> 0 then begin
          match Hashtbl.find_opt remap r with
          | Some d -> raw.(i) <- d
          | None ->
              incr next;
              Hashtbl.add remap r !next;
              raw.(i) <- !next
        end)
      raw;
    !next

  let label ~threshold img =
    let w = I.width img and h = I.height img in
    let labels = Array.make (w * h) 0 in
    let uf = Uf.create ((w * h / 2) + 2) in
    let next = ref 0 in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        if I.get img x y >= threshold then begin
          let left = if x > 0 then labels.(((y * w) + x) - 1) else 0 in
          let up = if y > 0 then labels.(((y - 1) * w) + x) else 0 in
          let l =
            match (left, up) with
            | 0, 0 ->
                incr next;
                !next
            | l, 0 | 0, l -> l
            | l, u ->
                if l <> u then Uf.union uf l u;
                min l u
          in
          labels.((y * w) + x) <- l
        end
      done
    done;
    for i = 0 to (w * h) - 1 do
      if labels.(i) <> 0 then labels.(i) <- Uf.find uf labels.(i)
    done;
    let ncomponents = densify labels in
    { C.labels; width = w; height = h; ncomponents }
end

let same_labelling (a : C.labelling) (b : C.labelling) =
  a.width = b.width && a.height = b.height && a.ncomponents = b.ncomponents
  && a.labels = b.labels

(* [label] against both oracles: exactly the reference's labels, and the
   same partition as the flood fill. *)
let agrees ~threshold img =
  let lab = C.label ~threshold img in
  same_labelling lab (Reference.label ~threshold img)
  && C.equivalent lab (C.label_flood ~threshold img)

let random_gray seed w h =
  let rng = Support.Prng.create seed in
  let img = I.create w h in
  I.iter (fun x y _ -> I.set img x y (Support.Prng.int rng 256)) img;
  img

let checkerboard w h =
  let img = I.create w h in
  I.iter (fun x y _ -> if (x + y) land 1 = 0 then I.set img x y 255) img;
  img

let test_matches_reference_on_shapes () =
  let check name ~threshold img =
    Alcotest.(check bool) name true (agrees ~threshold img)
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "1x%d" n) ~threshold:128 (random_binaryish n 50 1 n);
      check (Printf.sprintf "%dx1" n) ~threshold:128 (random_binaryish n 50 n 1))
    [ 1; 2; 7; 64; 300 ];
  check "all foreground" ~threshold:0 (random_gray 1 37 23);
  check "all foreground, one row" ~threshold:0 (random_gray 2 200 1);
  check "nothing above 256" ~threshold:256 (random_gray 3 30 30);
  (* A checkerboard is all singletons: the most components an image can
     have, so the union-find grows from its initial size many times. *)
  let board = checkerboard 129 131 in
  check "checkerboard" ~threshold:128 board;
  Alcotest.(check int) "checkerboard components" (((129 * 131) + 1) / 2)
    (C.label ~threshold:128 board).C.ncomponents

let prop_matches_reference =
  QCheck.Test.make ~name:"label equals the two-pass reference exactly" ~count:200
    QCheck.(
      make
        Gen.(
          quad (int_bound 1_000_000) (int_range 0 256) (int_range 1 60)
            (int_range 1 60))
        ~print:(fun (s, t, w, h) -> Printf.sprintf "seed=%d threshold=%d %dx%d" s t w h))
    (fun (seed, threshold, w, h) -> agrees ~threshold (random_gray seed w h))

let prop_binaryish_matches_reference =
  QCheck.Test.make ~name:"label equals the reference on blob images" ~count:120
    arbitrary_case (fun (seed, density, w, h) ->
      agrees ~threshold:128 (random_binaryish seed density w h))

let prop_detect_regions_count =
  QCheck.Test.make ~name:"regions count matches ncomponents" ~count:80 arbitrary_case
    (fun (seed, density, w, h) ->
      let img = random_binaryish seed density w h in
      let lab = C.label ~threshold:128 img in
      List.length (C.regions lab) = lab.C.ncomponents)

(* [detect_regions] works on row runs and never builds a label raster;
   [regions] of [label] is its oracle, record for record. *)
let regions_agree ~threshold img =
  C.detect_regions ~threshold img = C.regions (C.label ~threshold img)

let arbitrary_regions_case =
  QCheck.make
    QCheck.Gen.(
      let* w, h =
        frequency
          [
            (1, map (fun n -> (1, n)) (int_range 1 200));
            (1, map (fun n -> (n, 1)) (int_range 1 200));
            (6, pair (int_range 1 60) (int_range 1 60));
          ]
      in
      let* seed = int_bound 1_000_000 in
      let* kind = frequency [ (3, return `Binary); (2, return `Gray); (1, return `Full) ] in
      let* density = int_range 0 100 and* threshold = int_range 0 256 in
      return (seed, kind, density, threshold, w, h))
    ~print:(fun (seed, kind, density, threshold, w, h) ->
      Printf.sprintf "seed=%d %s density=%d threshold=%d %dx%d" seed
        (match kind with `Binary -> "binary" | `Gray -> "gray" | `Full -> "full")
        density threshold w h)

let prop_detect_regions_matches_label =
  QCheck.Test.make ~name:"detect_regions equals regions of label" ~count:300
    arbitrary_regions_case (fun (seed, kind, density, threshold, w, h) ->
      let img =
        match kind with
        | `Binary -> random_binaryish seed density w h
        | `Gray -> random_gray seed w h
        | `Full -> I.create ~init:255 w h
      in
      regions_agree ~threshold img)

let test_detect_regions_on_shapes () =
  let check name ~threshold img =
    Alcotest.(check bool) name true (regions_agree ~threshold img)
  in
  check "checkerboard" ~threshold:128 (checkerboard 129 131);
  check "all foreground" ~threshold:0 (random_gray 4 64 48);
  check "scene frame" ~threshold:200 (Vision.Scene.frame Vision.Scene.default_params 0);
  check "dense noise" ~threshold:100 (random_gray 5 512 64)

let () =
  Alcotest.run "ccl"
    [
      ( "labelling",
        [
          Alcotest.test_case "empty image" `Quick test_empty_image;
          Alcotest.test_case "full image" `Quick test_full_image;
          Alcotest.test_case "two blobs" `Quick test_two_blobs;
          Alcotest.test_case "diagonal not connected" `Quick test_diagonal_not_connected;
          Alcotest.test_case "U shape merges" `Quick test_u_shape_merges;
          Alcotest.test_case "labels dense" `Quick test_labels_dense;
          Alcotest.test_case "region areas sum" `Quick test_regions_area_sums;
          Alcotest.test_case "equivalence checker" `Quick test_equivalent_detects_renaming;
          Alcotest.test_case "reference on edge shapes" `Quick
            test_matches_reference_on_shapes;
          Alcotest.test_case "detect_regions on edge shapes" `Quick
            test_detect_regions_on_shapes;
        ] );
      ( "band merge",
        [
          Alcotest.test_case "single band identity" `Quick test_merge_bands_trivial;
          Alcotest.test_case "rejects gaps" `Quick test_merge_bands_rejects_gaps;
          Alcotest.test_case "banded equals whole" `Quick test_banded_equals_whole;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_union_find_matches_flood;
          QCheck_alcotest.to_alcotest prop_banded_matches_whole;
          QCheck_alcotest.to_alcotest prop_detect_regions_count;
          QCheck_alcotest.to_alcotest prop_detect_regions_matches_label;
          QCheck_alcotest.to_alcotest prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_binaryish_matches_reference;
        ] );
    ]
