let invert img = Image.map (fun v -> 255 - v) img

let mean img =
  let total = Image.fold (fun acc v -> acc + v) 0 img in
  float_of_int total /. float_of_int (Image.size img)
