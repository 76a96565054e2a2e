(* Metrics registry. The registry itself is a mutex-protected table of
   instruments keyed by (name, labels); the instruments carry their own
   synchronisation (atomics; a mutex per histogram) so the hot increment
   paths never contend on the registry lock. *)

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = { hmu : Mutex.t; mutable hist : Histogram.t }

type body =
  | Counter of counter
  | Gauge of gauge
  | Hist of histogram

type instrument = {
  name : string;
  labels : (string * string) list;
  help : string;
  body : body;
}

type t = {
  mu : Mutex.t;
  instruments : (string * (string * string) list, instrument) Hashtbl.t;
}

let create () = { mu = Mutex.create (); instruments = Hashtbl.create 16 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

(* Idempotent registration: same (name, labels) returns the existing
   instrument; a kind clash is a programming error worth failing loudly. *)
let register t ~help ~labels ~name make match_body =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match Hashtbl.find_opt t.instruments (name, labels) with
      | Some i -> (
          match match_body i.body with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Metrics: %s already registered as a %s" name
                   (kind_name i.body)))
      | None ->
          let v, body = make () in
          Hashtbl.add t.instruments (name, labels) { name; labels; help; body };
          v)

let counter t ?(help = "") ?(labels = []) name =
  register t ~help ~labels ~name
    (fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let set c n = Atomic.set c n
let value c = Atomic.get c

let gauge t ?(help = "") ?(labels = []) name =
  register t ~help ~labels ~name
    (fun () ->
      let g = Atomic.make 0.0 in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g v

let rec add_gauge g v =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. v)) then add_gauge g v

let gauge_value g = Atomic.get g

let histogram t ?(help = "") ?(labels = []) name =
  register t ~help ~labels ~name
    (fun () ->
      let h = { hmu = Mutex.create (); hist = Histogram.create () } in
      (h, Hist h))
    (function Hist h -> Some h | _ -> None)

let observe h v =
  Mutex.lock h.hmu;
  Histogram.add h.hist v;
  Mutex.unlock h.hmu

let merge h x =
  Mutex.lock h.hmu;
  h.hist <- Histogram.merge h.hist x;
  Mutex.unlock h.hmu

let snapshot h =
  Mutex.lock h.hmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock h.hmu)
    (fun () -> Histogram.copy h.hist)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

(* Deterministic order whatever the registration interleaving. *)
let sorted t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      List.sort
        (fun a b ->
          match String.compare a.name b.name with
          | 0 -> compare a.labels b.labels
          | c -> c)
        (Hashtbl.fold (fun _ i acc -> i :: acc) t.instruments []))

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let json t =
  let instruments = sorted t in
  let base i rest =
    ("name", Json.Str i.name) :: ("labels", labels_json i.labels) :: rest
  in
  let pick f = List.filter_map f instruments in
  let counters =
    pick (fun i ->
        match i.body with
        | Counter c ->
            Some (Json.Obj (base i [ ("value", Json.int (Atomic.get c)) ]))
        | _ -> None)
  in
  let gauges =
    pick (fun i ->
        match i.body with
        | Gauge g -> Some (Json.Obj (base i [ ("value", Json.Num (Atomic.get g)) ]))
        | _ -> None)
  in
  let histograms =
    pick (fun i ->
        match i.body with
        | Hist hm ->
            let h = snapshot hm in
            let buckets =
              List.map
                (fun (le, n) ->
                  Json.Obj
                    [ ("le", Json.Num le); ("n", Json.int n) ])
                (Histogram.buckets h)
            in
            Some
              (Json.Obj
                 (base i
                    [
                      ("count", Json.int (Histogram.count h));
                      ("sum", Json.Num (Histogram.sum h));
                      ("mean", Json.Num (Histogram.mean h));
                      ("p50", Json.Num (Histogram.quantile h 0.50));
                      ("p95", Json.Num (Histogram.quantile h 0.95));
                      ("p99", Json.Num (Histogram.quantile h 0.99));
                      ("buckets", Json.Arr buckets);
                    ]))
        | _ -> None)
  in
  Json.Obj
    [
      ("counters", Json.Arr counters);
      ("gauges", Json.Arr gauges);
      ("histograms", Json.Arr histograms);
    ]

let to_json t = Json.to_string (json t)

(* Prometheus text exposition: the only writer of the format in the tree. *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prometheus_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"

let to_prometheus t =
  let instruments = sorted t in
  let buf = Buffer.create 1024 in
  let headed = Hashtbl.create 16 in
  let head i =
    if not (Hashtbl.mem headed i.name) then begin
      Hashtbl.add headed i.name ();
      if i.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" i.name i.help);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" i.name (kind_name i.body))
    end
  in
  List.iter
    (fun i ->
      head i;
      let lbl = prometheus_labels i.labels in
      match i.body with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" i.name lbl (Atomic.get c))
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %.9f\n" i.name lbl (Atomic.get g))
      | Hist hm ->
          let h = snapshot hm in
          let with_le le = prometheus_labels (i.labels @ [ ("le", le) ]) in
          let cum = ref 0 in
          List.iter
            (fun (le, n) ->
              cum := !cum + n;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" i.name
                   (with_le (Printf.sprintf "%.9g" le))
                   !cum))
            (Histogram.buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" i.name (with_le "+Inf")
               (Histogram.count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %.9f\n" i.name lbl (Histogram.sum h));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" i.name lbl (Histogram.count h)))
    instruments;
  Buffer.contents buf
