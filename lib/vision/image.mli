(** Grayscale 8-bit images.

    Images are mutable row-major byte rasters. Coordinates are [(x, y)] with
    [x] the column in [0 .. width - 1] and [y] the row in [0 .. height - 1].
    All accessors raise [Invalid_argument] on out-of-bounds coordinates unless
    documented otherwise. *)

type t = private {
  width : int;
  height : int;
  data : Bytes.t;  (** row-major, [width * height] bytes *)
}

val create : ?init:int -> int -> int -> t
(** [create ?init w h] allocates a [w * h] image filled with [init]
    (default 0). Raises [Invalid_argument] if [w <= 0], [h <= 0] or
    [init] is outside [0, 255]. *)

val unsafe_create : int -> int -> t
(** [unsafe_create w h] allocates a [w * h] image without filling it: its
    pixels are whatever the allocator left until written. For creators that
    write every pixel before anything reads one ([sub], [Scene.frame]),
    which saves [create]'s pass over the raster. Raises [Invalid_argument]
    if [w <= 0] or [h <= 0]. *)

val width : t -> int
val height : t -> int
val size : t -> int
(** [size img] is [width img * height img]. *)

val get : t -> int -> int -> int
(** [get img x y] is the pixel value at [(x, y)], in [0, 255]. *)

val set : t -> int -> int -> int -> unit
(** [set img x y v] writes [v] (clamped to [0, 255]) at [(x, y)]. *)

val unsafe_get : t -> int -> int -> int
(** [unsafe_get img x y] is [get img x y] without the bounds check.
    Precondition: [in_bounds img x y]. Outside the image it reads a
    neighbouring row's pixel or memory past the raster. For row-wise kernel
    loops whose coordinates are in range by construction. *)

val unsafe_set : t -> int -> int -> int -> unit
(** [unsafe_set img x y v] is [set img x y v] without the bounds check and
    without the clamp. Preconditions: [in_bounds img x y] and
    [0 <= v <= 255]. Outside the image it corrupts memory; out of range it
    stores [v land 255]. *)

val in_bounds : t -> int -> int -> bool


val copy : t -> t

val sub : t -> x:int -> y:int -> w:int -> h:int -> t
(** [sub img ~x ~y ~w ~h] extracts a copy of the rectangle. The rectangle is
    clipped against the image; raises [Invalid_argument] when the clipped
    rectangle is empty. *)

val map : (int -> int) -> t -> t
(** [map f img] applies [f] to every pixel (result clamped to [0, 255]). *)

val mapi : (int -> int -> int -> int) -> t -> t
(** [mapi f img] applies [f x y v] to every pixel. *)

val iter : (int -> int -> int -> unit) -> t -> unit
(** [iter f img] calls [f x y v] for every pixel in row-major order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [fold f z img] folds over pixel values in row-major order. *)

val row_bands : t -> int -> (int * int) list
(** [row_bands img n] splits the rows into [n] contiguous bands, returned as
    [(first_row, nrows)] pairs; bands differ in height by at most one row.
    Bands beyond [height] rows are dropped, so fewer than [n] pairs may be
    returned for very short images. *)

val extract_band : t -> int * int -> t
(** [extract_band img (y0, nrows)] is the horizontal band starting at row
    [y0]. *)

val equal : t -> t -> bool

val digest : t -> int
(** [digest img] is a 30-bit FNV-1a hash of the raster (not of the
    dimensions), as [pp] prints it. *)

val pp : Format.formatter -> t -> unit
(** [pp] prints dimensions and a short content digest, not the raster. *)

val save_pgm : t -> string -> unit
(** [save_pgm img path] writes [img] to [path] as binary PGM (P5,
    maxval 255). *)
