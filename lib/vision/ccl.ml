type labelling = {
  labels : int array;
  width : int;
  height : int;
  ncomponents : int;
}

type region = {
  label : int;
  area : int;
  cx : float;
  cy : float;
  min_x : int;
  min_y : int;
  max_x : int;
  max_y : int;
}

(* Union-find over provisional labels [1 .. size] ([0] is background), with
   path halving; a union links the larger root under the smaller. The parent
   array starts small and doubles as [fresh] creates labels. *)
module Uf = struct
  type t = { mutable parent : int array; mutable size : int }

  let create n =
    let parent = Array.make (max 64 (n + 1)) 0 in
    for i = 1 to n do
      parent.(i) <- i
    done;
    { parent; size = n }

  let fresh t =
    let l = t.size + 1 in
    if l = Array.length t.parent then begin
      let parent = Array.make (2 * l) 0 in
      Array.blit t.parent 0 parent 0 l;
      t.parent <- parent
    end;
    t.parent.(l) <- l;
    t.size <- l;
    l

  let rec find t i =
    let p = t.parent.(i) in
    if p = i then i
    else begin
      let gp = t.parent.(p) in
      t.parent.(i) <- gp;
      if gp = p then p else find t gp
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra < rb then t.parent.(rb) <- ra else if rb < ra then t.parent.(ra) <- rb
end

(* Resolve provisional labels to their roots and renumber them densely, in
   raster order of each component's first pixel, with 0 reserved for
   background. Returns the number of components. *)
let densify uf labels =
  let remap = Array.make (uf.Uf.size + 1) 0 in
  let next = ref 0 in
  for i = 0 to Array.length labels - 1 do
    let l = Array.unsafe_get labels i in
    if l <> 0 then begin
      let r = Uf.find uf l in
      if remap.(r) = 0 then begin
        incr next;
        remap.(r) <- !next
      end;
      Array.unsafe_set labels i remap.(r)
    end
  done;
  !next

let label ~threshold img =
  let w = Image.width img and h = Image.height img in
  let labels = Array.make (w * h) 0 in
  let uf = Uf.create 0 in
  (* One pass: provisional labels from the left and upper neighbours,
     recording equivalences. Every index stays inside the [w * h] raster, so
     pixels and labels are accessed unchecked. *)
  for y = 0 to h - 1 do
    let row = y * w in
    for x = 0 to w - 1 do
      if Image.unsafe_get img x y >= threshold then begin
        let i = row + x in
        let left = if x > 0 then Array.unsafe_get labels (i - 1) else 0 in
        let up = if y > 0 then Array.unsafe_get labels (i - w) else 0 in
        let l =
          if left = 0 then if up = 0 then Uf.fresh uf else up
          else if up = 0 || up = left then left
          else begin
            Uf.union uf left up;
            if left < up then left else up
          end
        in
        Array.unsafe_set labels i l
      end
    done
  done;
  let ncomponents = densify uf labels in
  { labels; width = w; height = h; ncomponents }

let label_flood ~threshold img =
  let w = Image.width img and h = Image.height img in
  let labels = Array.make (w * h) 0 in
  let next = ref 0 in
  let queue = Queue.create () in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if Image.get img x y >= threshold && labels.((y * w) + x) = 0 then begin
        incr next;
        let l = !next in
        labels.((y * w) + x) <- l;
        Queue.add (x, y) queue;
        while not (Queue.is_empty queue) do
          let cx, cy = Queue.pop queue in
          let visit nx ny =
            if
              nx >= 0 && nx < w && ny >= 0 && ny < h
              && labels.((ny * w) + nx) = 0
              && Image.get img nx ny >= threshold
            then begin
              labels.((ny * w) + nx) <- l;
              Queue.add (nx, ny) queue
            end
          in
          visit (cx - 1) cy;
          visit (cx + 1) cy;
          visit cx (cy - 1);
          visit cx (cy + 1)
        done
      end
    done
  done;
  { labels; width = w; height = h; ncomponents = !next }

let regions lab =
  let n = lab.ncomponents in
  if n = 0 then []
  else begin
    let area = Array.make (n + 1) 0 in
    let sx = Array.make (n + 1) 0 and sy = Array.make (n + 1) 0 in
    let minx = Array.make (n + 1) max_int and miny = Array.make (n + 1) max_int in
    let maxx = Array.make (n + 1) min_int and maxy = Array.make (n + 1) min_int in
    for y = 0 to lab.height - 1 do
      for x = 0 to lab.width - 1 do
        let l = lab.labels.((y * lab.width) + x) in
        if l <> 0 then begin
          area.(l) <- area.(l) + 1;
          sx.(l) <- sx.(l) + x;
          sy.(l) <- sy.(l) + y;
          if x < minx.(l) then minx.(l) <- x;
          if x > maxx.(l) then maxx.(l) <- x;
          if y < miny.(l) then miny.(l) <- y;
          if y > maxy.(l) then maxy.(l) <- y
        end
      done
    done;
    List.init n (fun i ->
        let l = i + 1 in
        {
          label = l;
          area = area.(l);
          cx = float_of_int sx.(l) /. float_of_int area.(l);
          cy = float_of_int sy.(l) /. float_of_int area.(l);
          min_x = minx.(l);
          min_y = miny.(l);
          max_x = maxx.(l);
          max_y = maxy.(l);
        })
  end

(* Regions straight from the foreground runs of each row, with no label
   raster. Run [k] (numbered from 1 in raster order of first pixels) spans
   columns [x0 .. x1] of row [y], kept flat at [3k .. 3k + 2] of [runs]. A
   run joins each run of the row above whose columns overlap its own, in
   the union-find over run numbers, and a union keeps the smaller root: so
   each component's root is its first run, whose first pixel is the
   component's first in raster order, and numbering the roots in
   increasing order numbers the regions as [label] does. A run adds its
   integer sums to its root (area, x and y sums, bounding box), so [cx]
   and [cy] divide the same integers [regions] divides. *)
let detect_regions ~threshold img =
  let w = Image.width img and h = Image.height img in
  let data = img.Image.data in
  let uf = Uf.create 0 in
  let runs = ref (Array.make 96 0) in
  (* the runs of the row above are [above_lo .. above_hi] *)
  let above_lo = ref 1 and above_hi = ref 0 in
  for y = 0 to h - 1 do
    let row = y * w in
    let row_lo = uf.Uf.size + 1 in
    let j = ref !above_lo in
    let x = ref 0 in
    while !x < w do
      if Char.code (Bytes.unsafe_get data (row + !x)) < threshold then incr x
      else begin
        let x0 = !x in
        while !x < w && Char.code (Bytes.unsafe_get data (row + !x)) >= threshold do
          incr x
        done;
        let x1 = !x - 1 in
        let k = Uf.fresh uf in
        if (3 * k) + 2 >= Array.length !runs then begin
          let bigger = Array.make (2 * Array.length !runs) 0 in
          Array.blit !runs 0 bigger 0 (Array.length !runs);
          runs := bigger
        end;
        let r = !runs in
        r.(3 * k) <- x0;
        r.((3 * k) + 1) <- x1;
        r.((3 * k) + 2) <- y;
        (* runs above that end left of this one overlap no later run
           either; the ones from [j] that start by [x1] overlap this one *)
        while !j <= !above_hi && r.((3 * !j) + 1) < x0 do
          incr j
        done;
        let i = ref !j in
        while !i <= !above_hi && r.(3 * !i) <= x1 do
          Uf.union uf k !i;
          incr i
        done
      end
    done;
    above_lo := row_lo;
    above_hi := uf.Uf.size
  done;
  let n = uf.Uf.size and r = !runs in
  let area = Array.make (n + 1) 0 in
  let sx = Array.make (n + 1) 0 and sy = Array.make (n + 1) 0 in
  let minx = Array.make (n + 1) 0 and maxx = Array.make (n + 1) 0 in
  let maxy = Array.make (n + 1) 0 in
  let ncomponents = ref 0 in
  for k = 1 to n do
    let root = Uf.find uf k in
    let x0 = r.(3 * k) and x1 = r.((3 * k) + 1) and y = r.((3 * k) + 2) in
    let len = x1 - x0 + 1 in
    if root = k then begin
      incr ncomponents;
      minx.(k) <- x0;
      maxx.(k) <- x1
    end
    else begin
      if x0 < minx.(root) then minx.(root) <- x0;
      if x1 > maxx.(root) then maxx.(root) <- x1
    end;
    area.(root) <- area.(root) + len;
    sx.(root) <- sx.(root) + ((x0 + x1) * len / 2);
    sy.(root) <- sy.(root) + (y * len);
    (* runs come in raster order, so the last one has the largest y *)
    maxy.(root) <- y
  done;
  let regions = ref [] and l = ref !ncomponents in
  for k = n downto 1 do
    if uf.Uf.parent.(k) = k then begin
      regions :=
        {
          label = !l;
          area = area.(k);
          cx = float_of_int sx.(k) /. float_of_int area.(k);
          cy = float_of_int sy.(k) /. float_of_int area.(k);
          min_x = minx.(k);
          min_y = r.((3 * k) + 2);
          max_x = maxx.(k);
          max_y = maxy.(k);
        }
        :: !regions;
      decr l
    end
  done;
  !regions

let equivalent a b =
  a.width = b.width && a.height = b.height
  && a.ncomponents = b.ncomponents
  &&
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let ok = ref true in
  let n = a.width * a.height in
  let i = ref 0 in
  while !ok && !i < n do
    let la = a.labels.(!i) and lb = b.labels.(!i) in
    if (la = 0) <> (lb = 0) then ok := false
    else if la <> 0 then begin
      (match Hashtbl.find_opt fwd la with
      | Some lb' -> if lb' <> lb then ok := false
      | None -> Hashtbl.add fwd la lb);
      match Hashtbl.find_opt bwd lb with
      | Some la' -> if la' <> la then ok := false
      | None -> Hashtbl.add bwd lb la
    end;
    incr i
  done;
  !ok

let merge_bands ~width bands =
  (* Validate contiguity and reassemble raw labels with per-band offsets so
     provisional labels are globally unique, then union across seams. *)
  let total_height =
    List.fold_left
      (fun expected_y0 ((lab : labelling), y0) ->
        if lab.width <> width then invalid_arg "Ccl.merge_bands: width mismatch";
        if y0 <> expected_y0 then invalid_arg "Ccl.merge_bands: bands not contiguous";
        y0 + lab.height)
      0 bands
  in
  let labels = Array.make (width * total_height) 0 in
  let offset = ref 0 in
  let total_components =
    List.fold_left
      (fun acc ((lab : labelling), y0) ->
        Array.iteri
          (fun i l -> if l <> 0 then labels.((y0 * width) + i) <- l + !offset)
          lab.labels;
        offset := !offset + lab.ncomponents;
        acc + lab.ncomponents)
      0 bands
  in
  let uf = Uf.create total_components in
  (* Union components that touch vertically across each seam. *)
  List.iter
    (fun ((_ : labelling), y0) ->
      if y0 > 0 then
        for x = 0 to width - 1 do
          let above = labels.(((y0 - 1) * width) + x)
          and below = labels.((y0 * width) + x) in
          if above <> 0 && below <> 0 then Uf.union uf above below
        done)
    bands;
  let ncomponents = densify uf labels in
  { labels; width; height = total_height; ncomponents }
