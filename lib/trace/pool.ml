module Dp = Support.Domain_pool

let emit ?(labels = []) tl ~label (stats : Dp.stats) =
  List.iter
    (fun (s : Dp.span) ->
      let name =
        match List.nth_opt labels s.Dp.job with
        | Some l -> l
        | None -> Printf.sprintf "%s#%d" label s.Dp.job
      in
      Event.span tl
        ~lane:(Event.pool_lane s.Dp.domain)
        ~cat:"pool"
        ~args:[ ("job", Event.Count s.Dp.job) ]
        ~name ~time:s.Dp.start_s
        ~dur:(s.Dp.finish_s -. s.Dp.start_s)
        ())
    stats.Dp.spans;
  Event.instant tl ~lane:(Event.pool_lane 0) ~cat:"pool"
    ~args:
      [
        ("jobs", Event.Count stats.Dp.njobs);
        ("domains", Event.Count stats.Dp.domains);
        ("wall_s", Event.Num stats.Dp.wall_s);
      ]
    ~name:(label ^ " done") ~time:stats.Dp.wall_s ()

let to_json ?labels ~label stats =
  let tl = Event.create () in
  emit ?labels tl ~label stats;
  Chrome.to_json tl
